//! Differential properties of the binary IPC data plane: the only codec
//! a process-isolation worker speaks.
//!
//! The binary codec in `goat::core::wire` / `goat::trace::wire` must
//! carry a `RunResult` losslessly: what the orchestrator decodes must
//! equal what the worker's in-process run produced. These tests
//! synthesize arbitrary well-formed trace buffers and `RunResult`s
//! covering every `RunOutcome` variant (including
//! `Crashed { CrashForensics }` and `TimedOut`), round-trip real GoKer
//! runs executed in-process, and assert `decode(encode(r)) == r` — the
//! exact equivalence the byte-identity guarantee of process isolation
//! rests on.

use goat::core::wire::{self, WireFrame};
use goat::core::Program;
use goat::model::{Cu, CuKind};
use goat::runtime::{
    faultpoint, AliveGoroutine, Config, CrashForensics, Decision, ReplayLog, RunOutcome, RunResult,
    Runtime, SchedCounters, TimeoutPhase,
};
use goat::trace::wire::{decode_events, encode_events, Reader};
use goat::trace::{BlockReason, Ect, Event, EventKind, Gid, RId, SelCaseFlavor, VTime};
use proptest::prelude::*;

/// One raw draw the event builder turns into a concrete event: the kind
/// selector plus three free knobs the payload fields are carved from.
type EvSpec = (u8, u64, u64, bool);

fn ev_spec() -> impl Strategy<Value = EvSpec> {
    (0u8..29, any::<u64>(), any::<u64>(), any::<bool>())
}

const FILES: [&str; 3] = ["app/worker.go", "pkg/queue/queue.go", "internal/mu.go"];
const REASONS: [BlockReason; 7] = [
    BlockReason::Send,
    BlockReason::Recv,
    BlockReason::Select,
    BlockReason::Sync,
    BlockReason::Cond,
    BlockReason::WaitGroup,
    BlockReason::Sleep,
];
const FLAVORS: [SelCaseFlavor; 3] =
    [SelCaseFlavor::Send, SelCaseFlavor::Recv, SelCaseFlavor::Default];
const CU_KINDS: [CuKind; 4] = [CuKind::Send, CuKind::Recv, CuKind::Lock, CuKind::Go];

fn make_cu(a: u64, b: u64) -> Cu {
    Cu::new(
        FILES[(a % FILES.len() as u64) as usize],
        (b % 4096) as u32 + 1,
        CU_KINDS[(b % CU_KINDS.len() as u64) as usize],
    )
}

/// Build a dense-seq, time-monotone trace from raw spec draws. The kinds
/// deliberately sweep the whole `EventKind` vocabulary — interned names,
/// Cu-bearing concurrency sites, select case vectors, signed waitgroup
/// deltas, and `usize::MAX` select-default sentinels all appear.
fn build_events(specs: &[EvSpec]) -> Vec<Event> {
    let mut ts = 0u64;
    specs
        .iter()
        .enumerate()
        .map(|(i, &(pick, a, b, flag))| {
            ts += a % 11;
            let rid = RId(a % 9);
            let kind = match pick {
                0 => EventKind::GoCreate {
                    // Unique per event so traces stay double-create free.
                    new_g: Gid(1000 + i as u64),
                    name: format!("worker-{}", a % 3).into(),
                    internal: flag,
                },
                1 => EventKind::GoStart,
                2 => EventKind::GoEnd,
                3 => EventKind::GoStop,
                4 => EventKind::GoSched { trace_stop: flag },
                5 => EventKind::GoPreempt,
                6 => EventKind::GoSleep,
                7 => EventKind::GoBlock {
                    reason: REASONS[(a % REASONS.len() as u64) as usize],
                    holder_cu: flag.then(|| make_cu(b, a)),
                    holder: (b % 2 == 0).then_some(Gid(b % 5)),
                },
                8 => EventKind::GoUnblock { g: Gid(b % 6) },
                9 => EventKind::GoWaiting,
                10 => EventKind::Gomaxprocs { n: (a % 16) as u32 + 1 },
                11 => EventKind::HeapAlloc { bytes: b },
                12 => EventKind::UserLog { msg: format!("log {a} \u{1f} {b}") },
                13 => EventKind::TimerFire { timer: rid },
                14 => EventKind::ChMake { ch: rid, cap: (b % 5) as usize },
                15 => EventKind::ChSend { ch: rid },
                16 => EventKind::ChRecv { ch: rid, closed: flag },
                17 => EventKind::ChClose { ch: rid },
                18 => EventKind::SelectBegin {
                    cases: (0..(b % 4))
                        .map(|j| {
                            let fl = FLAVORS[((b + j) % 3) as usize];
                            let ch = (fl != SelCaseFlavor::Default).then(|| RId((a + j) % 9));
                            (fl, ch)
                        })
                        .collect(),
                    has_default: flag,
                },
                19 => {
                    let fl = FLAVORS[(a % 3) as usize];
                    EventKind::SelectEnd {
                        chosen: if fl == SelCaseFlavor::Default {
                            usize::MAX
                        } else {
                            (b % 4) as usize
                        },
                        flavor: fl,
                        ch: (fl != SelCaseFlavor::Default).then_some(rid),
                    }
                }
                20 => EventKind::MuLock { mu: rid },
                21 => EventKind::MuUnlock { mu: rid },
                22 => EventKind::RwRLock { mu: rid },
                23 => EventKind::RwRUnlock { mu: rid },
                24 => {
                    EventKind::WgAdd { wg: rid, delta: (b % 5) as i64 - 2, count: (a % 7) as i64 }
                }
                25 => EventKind::WgDone { wg: rid, count: (a % 7) as i64 },
                26 => EventKind::WgWait { wg: rid },
                27 => EventKind::CondWait { cv: rid },
                _ => {
                    if flag {
                        EventKind::CondSignal { cv: rid }
                    } else {
                        EventKind::CondBroadcast { cv: rid }
                    }
                }
            };
            let concurrency = matches!(
                kind,
                EventKind::ChSend { .. }
                    | EventKind::ChRecv { .. }
                    | EventKind::MuLock { .. }
                    | EventKind::WgAdd { .. }
                    | EventKind::SelectBegin { .. }
            );
            Event {
                seq: i as u64,
                ts: VTime(ts),
                g: Gid(b % 4),
                kind,
                cu: (concurrency && flag).then(|| make_cu(a, b)),
            }
        })
        .collect()
}

/// Raw draws for a full `RunOutcome`, covering all seven variants.
type OutcomeSpec = (u8, u64, u64, bool);

fn build_outcome(&(pick, a, b, flag): &OutcomeSpec) -> RunOutcome {
    match pick % 7 {
        0 => RunOutcome::Completed,
        1 => RunOutcome::GlobalDeadlock { blocked: (0..(a % 5)).map(|i| Gid(b % 7 + i)).collect() },
        2 => RunOutcome::Panicked { g: Gid(a % 9), msg: format!("send on closed channel #{b}") },
        3 => RunOutcome::StepLimit,
        4 => RunOutcome::TimedOut {
            phase: if flag { TimeoutPhase::Wedged } else { TimeoutPhase::Cooperative },
            elapsed_ms: a,
        },
        5 => RunOutcome::InfraFailure { reason: format!("checkout failed: os error {}", b % 255) },
        _ => RunOutcome::Crashed {
            forensics: CrashForensics {
                signal: flag.then_some((a % 32) as i32),
                exit_code: (!flag).then(|| (b % 256) as i32 - 128),
                stderr_tail: format!("thread 'main' panicked at step {a}\nnote: run {b}"),
                last_ack_iter: (b % 3 == 0).then_some(a),
                summary: format!("killed by signal {} (SIGABRT)", a % 32),
            },
        },
    }
}

/// Assemble a `RunResult` exercising every field the wire must carry.
fn build_result(outcome: RunOutcome, events: Vec<Event>, a: u64, b: u64, flag: bool) -> RunResult {
    let ect: Option<Ect> = (!events.is_empty()).then(|| events.into_iter().collect());
    RunResult {
        outcome,
        ect,
        steps: a,
        vclock: VTime(b),
        goroutines: a % 64,
        yields_injected: (b % 1000) as u32,
        priority_changes: (a % 16) as u32,
        alive_at_end: (0..(b % 4))
            .map(|i| AliveGoroutine {
                g: Gid(10 + i),
                name: format!("g{i}"),
                state: if i % 2 == 0 { "blocked: recv".into() } else { "runnable".into() },
                internal: flag && i == 0,
            })
            .collect(),
        schedule: ReplayLog {
            decisions: (0..(a % 6))
                .map(|i| match i % 3 {
                    0 => Decision::Pick(Gid(b % 5 + i)),
                    1 => Decision::SelectChoice((b % 4) as usize),
                    _ => Decision::YieldAt(flag),
                })
                .collect(),
        },
        replay_diverged: flag,
        sched: SchedCounters {
            picks: a,
            random_picks: a % 97,
            blocks: b % 1024,
            unblocks: b % 1023,
            yields_preempt: a % 33,
            yields_gosched: b % 17,
            timer_fires: a % 5,
            select_choices: b % 11,
        },
        fingerprint: a ^ b.rotate_left(17),
        panic_detail: flag.then(|| format!("panicked at 'boom {a}', src/lib.rs:{}", b % 500)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Event-level codec: varint-delta encode → decode is the identity on
    /// arbitrary dense trace buffers, and consumes its payload exactly.
    #[test]
    fn trace_events_roundtrip_bitwise(specs in prop::collection::vec(ev_spec(), 0..60)) {
        let events = build_events(&specs);
        let mut buf = Vec::new();
        encode_events(&events, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_events(&mut r).expect("decode well-formed events");
        prop_assert_eq!(&back, &events);
        prop_assert!(r.is_empty(), "codec left {} unread bytes", r.remaining());
    }

    /// Result-level differential: the binary round-trip of a `RunResult`
    /// equals the original and consumes its payload exactly.
    #[test]
    fn run_results_roundtrip_through_the_binary_codec(
        specs in prop::collection::vec(ev_spec(), 0..40),
        outcome in (any::<u8>(), any::<u64>(), any::<u64>(), any::<bool>()),
        a in any::<u64>(),
        b in any::<u64>(),
        flag in any::<bool>(),
    ) {
        let result = build_result(build_outcome(&outcome), build_events(&specs), a, b, flag);
        prop_assert_eq!(roundtrip(&result), result);
    }

    /// Frame-level differential: a `Result` frame survives the full
    /// framed encode → length-prefix strip → decode path intact.
    #[test]
    fn result_frames_roundtrip_end_to_end(
        specs in prop::collection::vec(ev_spec(), 0..20),
        outcome in (any::<u8>(), any::<u64>(), any::<u64>(), any::<bool>()),
        iter in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let result = build_result(build_outcome(&outcome), build_events(&specs), a, b, false);
        let frame = WireFrame::Result { iter, result: Box::new(result.clone()) };
        let mut framed = Vec::new();
        wire::encode_frame_into(&frame, &mut framed).expect("encode frame");
        // `[u32 LE len][payload]`: the length prefix must match exactly.
        let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, framed.len() - 4);

        match wire::decode_frame(&framed[4..]).expect("decode frame") {
            WireFrame::Result { iter: got_iter, result: got } => {
                prop_assert_eq!(got_iter, iter);
                prop_assert_eq!(*got, result);
            }
            other => prop_assert!(false, "decoded wrong frame: {other:?}"),
        }
    }
}

/// Truncating a valid binary result payload at any byte must fail with an
/// error, never panic and never decode to a different value — the decoder
/// treats every prefix as corruption.
#[test]
fn truncated_result_payloads_error_out_cleanly() {
    let specs: Vec<EvSpec> =
        (0..24u8).map(|i| (i % 29, i as u64 * 7 + 3, i as u64 * 13 + 1, i % 2 == 0)).collect();
    let result = build_result(build_outcome(&(6, 11, 42, true)), build_events(&specs), 5, 9, true);
    let mut buf = Vec::new();
    wire::encode_result(&result, &mut buf);
    for cut in 0..buf.len() {
        let mut r = Reader::new(&buf[..cut]);
        if let Ok(back) = wire::decode_result(&mut r) {
            // A prefix may only decode successfully if trailing bytes were
            // pure padding — it must still be the same value.
            assert_eq!(back, result);
        }
    }
}

/// Encode `result` with the worker's codec and decode it the way the
/// orchestrator does, asserting the payload is consumed exactly.
fn roundtrip(result: &RunResult) -> RunResult {
    let mut buf = Vec::new();
    wire::encode_result(result, &mut buf);
    let mut r = Reader::new(&buf);
    let back = wire::decode_result(&mut r).expect("decode well-formed result");
    assert!(r.is_empty(), "codec left {} unread bytes", r.remaining());
    back
}

fn run_kernel(kernel: &'static goat::goker::BugKernel, seed: u64) -> RunResult {
    let cfg = Config::new(seed).with_delay_bound(2).with_trace(true);
    Runtime::run(cfg, move || Program::main(kernel))
}

/// Real runs, executed in-process exactly as a worker executes them:
/// every GoKer kernel over several seeds (so deadlocking and completing
/// runs with full traces are both covered), then the `iter:panic` fault
/// path. Each result must survive the binary round trip unchanged
/// (`assert!` rather than `assert_eq!`: a mismatch would dump whole
/// traces).
#[test]
fn in_process_kernel_runs_roundtrip_through_the_binary_codec() {
    {
        let _plan = faultpoint::scoped("");
        let (mut deadlocked, mut completed) = (0usize, 0usize);
        for kernel in goat::goker::all_kernels() {
            for seed in 1..=4u64 {
                let result = run_kernel(kernel, seed);
                assert!(result.ect.is_some(), "{} seed {seed}: run has no ECT", kernel.name);
                match result.outcome {
                    RunOutcome::GlobalDeadlock { .. } => deadlocked += 1,
                    RunOutcome::Completed => completed += 1,
                    _ => {}
                }
                assert!(
                    roundtrip(&result) == result,
                    "{} seed {seed}: round trip differs",
                    kernel.name
                );
            }
        }
        assert!(deadlocked > 0, "no kernel run deadlocked; the deadlock path went unchecked");
        assert!(completed > 0, "no kernel run completed; the completion path went unchecked");
    }

    let _plan = faultpoint::scoped("iter:panic");
    let kernel = goat::goker::by_name("etcd6708").expect("kernel");
    for seed in 1..=4u64 {
        let result = run_kernel(kernel, seed);
        assert!(
            matches!(result.outcome, RunOutcome::Panicked { .. }),
            "iter:panic seed {seed}: got {}",
            result.outcome
        );
        assert!(roundtrip(&result) == result, "iter:panic seed {seed}: round trip differs");
    }
}
