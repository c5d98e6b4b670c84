//! Binary frame codec for the process-isolation data plane
//! (`GOAT_IPC=bin`).
//!
//! The JSON protocol of [`crate::isolate`] re-serializes the full
//! [`Config`] into every `Run` frame and renders whole result traces as
//! JSON text; at campaign scale that per-run cost dominates short
//! iterations. This module defines the compact alternative:
//!
//! * framing is unchanged — `[u32 LE payload length][payload]` — so the
//!   corrupt/oversized-stream handling and the garbage-frame fault
//!   profile behave identically in both modes; only the payload bytes
//!   differ (`[u8 frame tag][varint fields…]` instead of JSON);
//! * an `Init` frame carries the campaign-constant [`Config`] base
//!   **once per worker checkout**, so every `Run` frame is a handful of
//!   bytes: the iteration, plus exactly the per-run delta the campaign
//!   runner varies (seed, delay bound, yield probability, strategy);
//! * `Result` payloads embed the trace through the varint-delta event
//!   codec of [`goat_trace::wire`].
//!
//! Every codec here is lossless and total: `decode(encode(x)) == x`
//! for arbitrary values (differential proptests against the JSON path
//! live in `tests/ipc_wire.rs`), and decoding arbitrary bytes returns
//! [`std::io::ErrorKind::InvalidData`] rather than panicking, because
//! the bytes cross a process boundary.

use goat_runtime::{
    AliveGoroutine, Config, CrashForensics, Decision, ReplayLog, RunOutcome, RunResult,
    SchedCounters, SchedPolicy, StrategyKind, TimeoutPhase,
};
use goat_trace::wire::{put_bool, put_f64, put_ivarint, put_str, put_uvarint, Reader};
use goat_trace::{Ect, Gid, VTime};
use std::io::{self, ErrorKind};

fn err(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("wire: {msg}"))
}

/// One message on the binary worker wire.
///
/// `Ready`/`Ack`/`Heartbeat`/`Result` mirror their JSON counterparts;
/// `Init`/`Run` split the JSON `Run{cfg}` frame into a per-checkout
/// base and a per-run delta.
#[derive(Debug, Clone)]
pub enum WireFrame {
    /// Worker → orchestrator: startup handshake (after the rlimit jail).
    Ready,
    /// Orchestrator → worker: campaign-constant state for all following
    /// `Run` frames, sent when the worker is first used by a campaign
    /// (and again whenever the base or fault plan changes).
    Init {
        /// Program name, resolved by the worker's registry.
        program: String,
        /// The base [`Config`]: every field a `Run` delta does not
        /// override.
        base: Box<Config>,
    },
    /// Orchestrator → worker: execute one iteration. Carries only the
    /// fields [`crate::GoatConfig`] varies per run; everything else
    /// comes from the checked-in `Init` base.
    Run {
        /// 1-based campaign iteration.
        iter: u64,
        /// Per-run RNG seed.
        seed: u64,
        /// Per-run perturbation bound `D` (bandit arms vary it).
        delay_bound: u32,
        /// Per-run yield probability (bandit arms vary it).
        yield_prob: f64,
        /// Per-run scheduling strategy (bandit arms vary it).
        strategy: StrategyKind,
    },
    /// Worker → orchestrator: the `Run` frame was received.
    Ack {
        /// Iteration being acknowledged.
        iter: u64,
    },
    /// Worker → orchestrator: liveness beacon.
    Heartbeat {
        /// Iteration currently being served (0 when idle).
        iter: u64,
    },
    /// Worker → orchestrator: the iteration's complete result.
    Result {
        /// Iteration the result belongs to.
        iter: u64,
        /// The run's full result (boxed: dwarfs the other variants).
        result: Box<RunResult>,
    },
}

const F_READY: u8 = 0;
const F_INIT: u8 = 1;
const F_RUN: u8 = 2;
const F_ACK: u8 = 3;
const F_HEARTBEAT: u8 = 4;
const F_RESULT: u8 = 5;
// Tag 6 belonged to a retired shared-memory result reference; it now
// decodes as a bad tag, so a stale worker degrades to an infra failure.

fn put_strategy(buf: &mut Vec<u8>, s: &StrategyKind) {
    match s {
        StrategyKind::Native => buf.push(0),
        StrategyKind::Random => buf.push(1),
        StrategyKind::Pct { depth, length } => {
            buf.push(2);
            put_uvarint(buf, u64::from(*depth));
            put_uvarint(buf, u64::from(*length));
        }
    }
}

fn get_strategy(r: &mut Reader<'_>) -> io::Result<StrategyKind> {
    Ok(match r.u8()? {
        0 => StrategyKind::Native,
        1 => StrategyKind::Random,
        2 => StrategyKind::Pct { depth: r.uvarint()? as u32, length: r.uvarint()? as u32 },
        other => return Err(err(format_args!("bad strategy tag {other}"))),
    })
}

fn put_replay_log(buf: &mut Vec<u8>, log: &ReplayLog) {
    put_uvarint(buf, log.decisions.len() as u64);
    for d in &log.decisions {
        match d {
            Decision::Pick(g) => {
                buf.push(0);
                put_uvarint(buf, g.0);
            }
            Decision::SelectChoice(c) => {
                buf.push(1);
                put_uvarint(buf, *c as u64);
            }
            Decision::YieldAt(y) => {
                buf.push(2);
                put_bool(buf, *y);
            }
        }
    }
}

fn get_replay_log(r: &mut Reader<'_>) -> io::Result<ReplayLog> {
    let n = r.uvarint()? as usize;
    if n > r.remaining() {
        return Err(err("decision count exceeds payload"));
    }
    let mut decisions = Vec::with_capacity(n);
    for _ in 0..n {
        decisions.push(match r.u8()? {
            0 => Decision::Pick(Gid(r.uvarint()?)),
            1 => Decision::SelectChoice(r.uvarint()? as usize),
            2 => Decision::YieldAt(r.bool()?),
            other => return Err(err(format_args!("bad decision tag {other}"))),
        });
    }
    Ok(ReplayLog { decisions })
}

fn put_policy(buf: &mut Vec<u8>, p: &SchedPolicy) {
    match p {
        SchedPolicy::Native => buf.push(0),
        SchedPolicy::UniformRandom => buf.push(1),
        SchedPolicy::Replay(log) => {
            buf.push(2);
            put_replay_log(buf, log);
        }
    }
}

fn get_policy(r: &mut Reader<'_>) -> io::Result<SchedPolicy> {
    Ok(match r.u8()? {
        0 => SchedPolicy::Native,
        1 => SchedPolicy::UniformRandom,
        2 => SchedPolicy::Replay(get_replay_log(r)?),
        other => return Err(err(format_args!("bad policy tag {other}"))),
    })
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_uvarint(buf, v);
        }
        None => buf.push(0),
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> io::Result<Option<u64>> {
    Ok(match r.bool()? {
        true => Some(r.uvarint()?),
        false => None,
    })
}

fn put_opt_i32(buf: &mut Vec<u8>, v: Option<i32>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_ivarint(buf, i64::from(v));
        }
        None => buf.push(0),
    }
}

fn get_opt_i32(r: &mut Reader<'_>) -> io::Result<Option<i32>> {
    Ok(match r.bool()? {
        true => Some(r.ivarint()? as i32),
        false => None,
    })
}

/// Append the full [`Config`] in wire form (every field, declaration
/// order). Used for the `Init` base and for init-hash computation.
pub fn encode_config(cfg: &Config, buf: &mut Vec<u8>) {
    put_uvarint(buf, cfg.seed);
    put_f64(buf, cfg.native_preempt_prob);
    put_uvarint(buf, u64::from(cfg.delay_bound));
    put_f64(buf, cfg.yield_prob);
    put_uvarint(buf, cfg.max_steps);
    put_uvarint(buf, cfg.time_step_ns);
    put_bool(buf, cfg.trace);
    put_uvarint(buf, cfg.max_trace_events as u64);
    put_policy(buf, &cfg.policy);
    put_strategy(buf, &cfg.strategy);
    put_bool(buf, cfg.pool);
    put_opt_u64(buf, cfg.iter_timeout_ms);
}

/// Decode a [`Config`] written by [`encode_config`].
pub fn decode_config(r: &mut Reader<'_>) -> io::Result<Config> {
    Ok(Config {
        seed: r.uvarint()?,
        native_preempt_prob: r.f64()?,
        delay_bound: r.uvarint()? as u32,
        yield_prob: r.f64()?,
        max_steps: r.uvarint()?,
        time_step_ns: r.uvarint()?,
        trace: r.bool()?,
        max_trace_events: r.uvarint()? as usize,
        policy: get_policy(r)?,
        strategy: get_strategy(r)?,
        pool: r.bool()?,
        iter_timeout_ms: get_opt_u64(r)?,
        spin: 0,
    })
}

fn put_forensics(buf: &mut Vec<u8>, f: &CrashForensics) {
    put_opt_i32(buf, f.signal);
    put_opt_i32(buf, f.exit_code);
    put_str(buf, &f.stderr_tail);
    put_opt_u64(buf, f.last_ack_iter);
    put_str(buf, &f.summary);
}

fn get_forensics(r: &mut Reader<'_>) -> io::Result<CrashForensics> {
    Ok(CrashForensics {
        signal: get_opt_i32(r)?,
        exit_code: get_opt_i32(r)?,
        stderr_tail: r.str()?.to_string(),
        last_ack_iter: get_opt_u64(r)?,
        summary: r.str()?.to_string(),
    })
}

fn put_outcome(buf: &mut Vec<u8>, o: &RunOutcome) {
    match o {
        RunOutcome::Completed => buf.push(0),
        RunOutcome::GlobalDeadlock { blocked } => {
            buf.push(1);
            put_uvarint(buf, blocked.len() as u64);
            for g in blocked {
                put_uvarint(buf, g.0);
            }
        }
        RunOutcome::Panicked { g, msg } => {
            buf.push(2);
            put_uvarint(buf, g.0);
            put_str(buf, msg);
        }
        RunOutcome::StepLimit => buf.push(3),
        RunOutcome::TimedOut { phase, elapsed_ms } => {
            buf.push(4);
            buf.push(match phase {
                TimeoutPhase::Cooperative => 0,
                TimeoutPhase::Wedged => 1,
            });
            put_uvarint(buf, *elapsed_ms);
        }
        RunOutcome::InfraFailure { reason } => {
            buf.push(5);
            put_str(buf, reason);
        }
        RunOutcome::Crashed { forensics } => {
            buf.push(6);
            put_forensics(buf, forensics);
        }
    }
}

fn get_outcome(r: &mut Reader<'_>) -> io::Result<RunOutcome> {
    Ok(match r.u8()? {
        0 => RunOutcome::Completed,
        1 => {
            let n = r.uvarint()? as usize;
            if n > r.remaining() {
                return Err(err("blocked-goroutine count exceeds payload"));
            }
            let mut blocked = Vec::with_capacity(n);
            for _ in 0..n {
                blocked.push(Gid(r.uvarint()?));
            }
            RunOutcome::GlobalDeadlock { blocked }
        }
        2 => RunOutcome::Panicked { g: Gid(r.uvarint()?), msg: r.str()?.to_string() },
        3 => RunOutcome::StepLimit,
        4 => RunOutcome::TimedOut {
            phase: match r.u8()? {
                0 => TimeoutPhase::Cooperative,
                1 => TimeoutPhase::Wedged,
                other => return Err(err(format_args!("bad timeout phase {other}"))),
            },
            elapsed_ms: r.uvarint()?,
        },
        5 => RunOutcome::InfraFailure { reason: r.str()?.to_string() },
        6 => RunOutcome::Crashed { forensics: get_forensics(r)? },
        other => return Err(err(format_args!("bad outcome tag {other}"))),
    })
}

/// Append a full [`RunResult`] in wire form. The trace, when present,
/// travels through the varint-delta event codec of
/// [`goat_trace::wire`].
pub fn encode_result(result: &RunResult, buf: &mut Vec<u8>) {
    put_outcome(buf, &result.outcome);
    match &result.ect {
        Some(ect) => {
            buf.push(1);
            goat_trace::wire::encode_events(ect.events(), buf);
        }
        None => buf.push(0),
    }
    put_uvarint(buf, result.steps);
    put_uvarint(buf, result.vclock.0);
    put_uvarint(buf, result.goroutines);
    put_uvarint(buf, u64::from(result.yields_injected));
    put_uvarint(buf, u64::from(result.priority_changes));
    put_uvarint(buf, result.alive_at_end.len() as u64);
    for a in &result.alive_at_end {
        put_uvarint(buf, a.g.0);
        put_str(buf, &a.name);
        put_str(buf, &a.state);
        put_bool(buf, a.internal);
    }
    put_replay_log(buf, &result.schedule);
    put_bool(buf, result.replay_diverged);
    for c in [
        result.sched.picks,
        result.sched.random_picks,
        result.sched.blocks,
        result.sched.unblocks,
        result.sched.yields_preempt,
        result.sched.yields_gosched,
        result.sched.timer_fires,
        result.sched.select_choices,
    ] {
        put_uvarint(buf, c);
    }
    // Fixed 8 bytes: fingerprints are FNV state, uniformly distributed,
    // so a varint would *grow* them.
    buf.extend_from_slice(&result.fingerprint.to_le_bytes());
    match &result.panic_detail {
        Some(d) => {
            buf.push(1);
            put_str(buf, d);
        }
        None => buf.push(0),
    }
}

/// Decode a [`RunResult`] written by [`encode_result`].
pub fn decode_result(r: &mut Reader<'_>) -> io::Result<RunResult> {
    let outcome = get_outcome(r)?;
    let ect = match r.bool()? {
        true => {
            let events = goat_trace::wire::decode_events(r)?;
            // `Ect::from_events` asserts density; on cross-process bytes
            // corruption must surface as an error, not a panic.
            if events.iter().enumerate().any(|(i, ev)| ev.seq as usize != i) {
                return Err(err("trace sequence numbers are not dense"));
            }
            Some(Ect::from_events(events))
        }
        false => None,
    };
    let steps = r.uvarint()?;
    let vclock = VTime(r.uvarint()?);
    let goroutines = r.uvarint()?;
    let yields_injected = r.uvarint()? as u32;
    let priority_changes = r.uvarint()? as u32;
    let n_alive = r.uvarint()? as usize;
    if n_alive > r.remaining() {
        return Err(err("alive-goroutine count exceeds payload"));
    }
    let mut alive_at_end = Vec::with_capacity(n_alive);
    for _ in 0..n_alive {
        alive_at_end.push(AliveGoroutine {
            g: Gid(r.uvarint()?),
            name: r.str()?.to_string(),
            state: r.str()?.to_string(),
            internal: r.bool()?,
        });
    }
    let schedule = get_replay_log(r)?;
    let replay_diverged = r.bool()?;
    let mut counters = [0u64; 8];
    for c in &mut counters {
        *c = r.uvarint()?;
    }
    let sched = SchedCounters {
        picks: counters[0],
        random_picks: counters[1],
        blocks: counters[2],
        unblocks: counters[3],
        yields_preempt: counters[4],
        yields_gosched: counters[5],
        timer_fires: counters[6],
        select_choices: counters[7],
    };
    let mut fp = [0u8; 8];
    fp.copy_from_slice(r.bytes_fixed(8)?);
    let fingerprint = u64::from_le_bytes(fp);
    let panic_detail = match r.bool()? {
        true => Some(r.str()?.to_string()),
        false => None,
    };
    Ok(RunResult {
        outcome,
        ect,
        steps,
        vclock,
        goroutines,
        yields_injected,
        priority_changes,
        alive_at_end,
        schedule,
        replay_diverged,
        sched,
        fingerprint,
        panic_detail,
    })
}

/// Append one frame in wire form — `[u32 LE payload length][tag][…]` —
/// to `buf` (batching concatenates frames into one write).
pub fn encode_frame_into(frame: &WireFrame, buf: &mut Vec<u8>) -> io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    match frame {
        WireFrame::Ready => buf.push(F_READY),
        WireFrame::Init { program, base } => {
            buf.push(F_INIT);
            put_str(buf, program);
            encode_config(base, buf);
        }
        WireFrame::Run { iter, seed, delay_bound, yield_prob, strategy } => {
            buf.push(F_RUN);
            put_uvarint(buf, *iter);
            put_uvarint(buf, *seed);
            put_uvarint(buf, u64::from(*delay_bound));
            put_f64(buf, *yield_prob);
            put_strategy(buf, strategy);
        }
        WireFrame::Ack { iter } => {
            buf.push(F_ACK);
            put_uvarint(buf, *iter);
        }
        WireFrame::Heartbeat { iter } => {
            buf.push(F_HEARTBEAT);
            put_uvarint(buf, *iter);
        }
        WireFrame::Result { iter, result } => {
            buf.push(F_RESULT);
            put_uvarint(buf, *iter);
            encode_result(result, buf);
        }
    }
    let payload_len = buf.len() - start - 4;
    let Ok(len32) = u32::try_from(payload_len) else {
        buf.truncate(start);
        return Err(err("frame payload exceeds the u32 length prefix"));
    };
    buf[start..start + 4].copy_from_slice(&len32.to_le_bytes());
    Ok(())
}

/// Decode one frame payload (the bytes after the length prefix).
pub fn decode_frame(payload: &[u8]) -> io::Result<WireFrame> {
    let mut r = Reader::new(payload);
    let frame = match r.u8()? {
        F_READY => WireFrame::Ready,
        F_INIT => WireFrame::Init {
            program: r.str()?.to_string(),
            base: Box::new(decode_config(&mut r)?),
        },
        F_RUN => WireFrame::Run {
            iter: r.uvarint()?,
            seed: r.uvarint()?,
            delay_bound: r.uvarint()? as u32,
            yield_prob: r.f64()?,
            strategy: get_strategy(&mut r)?,
        },
        F_ACK => WireFrame::Ack { iter: r.uvarint()? },
        F_HEARTBEAT => WireFrame::Heartbeat { iter: r.uvarint()? },
        F_RESULT => {
            let iter = r.uvarint()?;
            WireFrame::Result { iter, result: Box::new(decode_result(&mut r)?) }
        }
        other => return Err(err(format_args!("bad frame tag {other}"))),
    };
    if !r.is_empty() {
        return Err(err(format_args!("{} trailing bytes after frame", r.remaining())));
    }
    Ok(frame)
}

/// FNV-1a over a byte string — the init-hash primitive: the
/// orchestrator hashes (program, encoded base config, fault-plan spec)
/// to decide whether a checked-out worker's cached `Init`
/// state is still valid.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &WireFrame) -> WireFrame {
        let mut buf = Vec::new();
        encode_frame_into(frame, &mut buf).expect("encode");
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4);
        decode_frame(&buf[4..]).expect("decode")
    }

    #[test]
    fn small_frames_roundtrip() {
        for frame in [
            WireFrame::Ready,
            WireFrame::Ack { iter: 7 },
            WireFrame::Heartbeat { iter: 0 },
            WireFrame::Run {
                iter: 41,
                seed: u64::MAX,
                delay_bound: 3,
                yield_prob: 0.25,
                strategy: StrategyKind::Pct { depth: 4, length: 256 },
            },
        ] {
            // No PartialEq on RunResult/Config-bearing frames; Debug
            // renders every field, so equal strings mean equal frames.
            assert_eq!(format!("{:?}", roundtrip(&frame)), format!("{frame:?}"));
        }
    }

    #[test]
    fn run_frames_are_small() {
        let mut buf = Vec::new();
        encode_frame_into(
            &WireFrame::Run {
                iter: 1000,
                seed: 123_456_789,
                delay_bound: 3,
                yield_prob: 0.5,
                strategy: StrategyKind::Native,
            },
            &mut buf,
        )
        .unwrap();
        // The whole point of Init/Run splitting: a Run frame is tens of
        // bytes, not a JSON-rendered Config.
        assert!(buf.len() < 32, "run frame is {} bytes", buf.len());
    }

    #[test]
    fn init_frame_roundtrips_the_full_config() {
        let base = Config {
            seed: 0,
            native_preempt_prob: 0.02,
            delay_bound: 0,
            yield_prob: 0.0,
            max_steps: 123_456,
            time_step_ns: 10_000,
            trace: true,
            max_trace_events: 1_000_000,
            policy: SchedPolicy::Replay(ReplayLog {
                decisions: vec![
                    Decision::Pick(Gid(3)),
                    Decision::SelectChoice(2),
                    Decision::YieldAt(true),
                ],
            }),
            strategy: StrategyKind::Random,
            pool: false,
            iter_timeout_ms: Some(2000),
            spin: 0,
        };
        let frame = WireFrame::Init { program: "etcd6708".into(), base: Box::new(base.clone()) };
        let WireFrame::Init { base: back, .. } = roundtrip(&frame) else { panic!("wrong frame") };
        // Config has no PartialEq; compare through the JSON codec.
        assert_eq!(serde_json::to_string(&*back).unwrap(), serde_json::to_string(&base).unwrap());
    }

    #[test]
    fn result_frame_roundtrips_every_outcome() {
        let outcomes = vec![
            RunOutcome::Completed,
            RunOutcome::GlobalDeadlock { blocked: vec![Gid(2), Gid(5)] },
            RunOutcome::Panicked { g: Gid(3), msg: "send on closed channel".into() },
            RunOutcome::StepLimit,
            RunOutcome::TimedOut { phase: TimeoutPhase::Wedged, elapsed_ms: 777 },
            RunOutcome::InfraFailure { reason: "spawn failed".into() },
            RunOutcome::Crashed {
                forensics: CrashForensics {
                    signal: Some(11),
                    exit_code: None,
                    stderr_tail: "segfault at 0x0".into(),
                    last_ack_iter: Some(41),
                    summary: "killed by signal 11 (SIGSEGV)".into(),
                },
            },
        ];
        for outcome in outcomes {
            let result = RunResult {
                outcome,
                ect: None,
                steps: 99,
                vclock: VTime(990_000),
                goroutines: 4,
                yields_injected: 2,
                priority_changes: 1,
                alive_at_end: vec![AliveGoroutine {
                    g: Gid(2),
                    name: "worker".into(),
                    state: "blocked: send".into(),
                    internal: false,
                }],
                schedule: ReplayLog { decisions: vec![Decision::Pick(Gid(1))] },
                replay_diverged: false,
                sched: SchedCounters { picks: 9, blocks: 3, ..Default::default() },
                fingerprint: 0xdead_beef_cafe_f00d,
                panic_detail: Some("panicked at kernel.rs:7".into()),
            };
            let frame = WireFrame::Result { iter: 12, result: Box::new(result.clone()) };
            let WireFrame::Result { iter, result: back } = roundtrip(&frame) else {
                panic!("wrong frame")
            };
            assert_eq!(iter, 12);
            assert_eq!(
                serde_json::to_string(&*back).unwrap(),
                serde_json::to_string(&result).unwrap()
            );
        }
    }

    #[test]
    fn corrupt_payloads_are_invalid_data_not_panics() {
        for payload in [
            &[][..],
            &[99][..],              // bad frame tag
            &[F_RUN, 0x80][..],     // truncated varint
            &[F_RESULT, 1, 7][..],  // truncated result
            &[F_ACK, 1, 1][..],     // trailing bytes
            &[F_INIT, 2, b'x'][..], // truncated string
        ] {
            let e = decode_frame(payload).expect_err("must reject");
            assert_eq!(e.kind(), ErrorKind::InvalidData, "payload {payload:?}");
        }
    }

    #[test]
    fn retired_result_shm_tag_is_invalid_data() {
        // A stale worker still speaking the shared-memory result
        // reference (tag 6: iter, slot, len) must decode as corrupt, so
        // the orchestrator records a retried infra failure, never a
        // panic.
        let e = decode_frame(&[6, 9, 3, 0xb9, 0x60]).expect_err("must reject");
        assert_eq!(e.kind(), ErrorKind::InvalidData);
        assert!(e.to_string().contains("bad frame tag 6"), "{e}");
    }

    #[test]
    fn non_dense_trace_is_rejected() {
        // Hand-craft a Result frame whose trace has seq 0, 2.
        use goat_trace::{Event, EventKind};
        let events = vec![
            Event { seq: 0, ts: VTime(0), g: Gid(1), kind: EventKind::GoStart, cu: None },
            Event { seq: 2, ts: VTime(1), g: Gid(1), kind: EventKind::GoEnd, cu: None },
        ];
        let mut payload = vec![F_RESULT];
        put_uvarint(&mut payload, 1); // iter
        payload.push(0); // outcome: Completed
        payload.push(1); // ect present
        goat_trace::wire::encode_events(&events, &mut payload);
        let e = decode_frame(&payload).expect_err("must reject");
        assert_eq!(e.kind(), ErrorKind::InvalidData);
        assert!(e.to_string().contains("dense"));
    }

    #[test]
    fn fnv_is_stable_and_discriminating() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        let mut buf_a = Vec::new();
        let mut buf_b = Vec::new();
        encode_config(&Config::new(0), &mut buf_a);
        encode_config(&Config::new(0).with_delay_bound(1), &mut buf_b);
        assert_ne!(fnv1a64(&buf_a), fnv1a64(&buf_b));
    }
}
