//! Stress tests for the token handoff.
//!
//! The parker's contract: exactly one consumer parks per cycle, exactly
//! one producer grants (or shuts down), and the grant must never be
//! lost, whether it lands before the consumer starts waiting or after.
//! These tests hammer exactly that window.

use goat_runtime::park::Parker;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Two threads ping-pong the token through a pair of parkers. A
/// counter-driven busy loop varies the producer-side delay, so grants
/// land both before and after the consumer starts waiting, many
/// thousands of times.
#[test]
fn token_ping_pong_never_loses_a_grant() {
    const ROUNDS: u64 = 20_000;
    let a = Parker::new();
    let b = Parker::new();
    let count = Arc::new(AtomicU64::new(0));

    let (a2, b2, count2) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&count));
    let peer = std::thread::spawn(move || {
        for i in 0..ROUNDS {
            a2.park().expect("no shutdown in this test");
            count2.fetch_add(1, Ordering::Relaxed);
            for _ in 0..(i % 7) * 3 {
                std::hint::spin_loop();
            }
            b2.grant();
        }
    });

    for i in 0..ROUNDS {
        for _ in 0..(i % 5) * 5 {
            std::hint::spin_loop();
        }
        a.grant();
        b.park().expect("no shutdown in this test");
    }
    peer.join().expect("peer thread");
    assert_eq!(count.load(Ordering::Relaxed), ROUNDS, "every grant consumed");
}

/// Shutdown must interrupt a consumer whether it lands before or after
/// the consumer parks.
#[test]
fn shutdown_interrupts_parked_consumers() {
    for delay_us in [0u64, 50, 200] {
        let p = Parker::new();
        let q = Arc::clone(&p);
        let h = std::thread::spawn(move || q.park());
        std::thread::sleep(Duration::from_micros(delay_us));
        p.shutdown();
        assert_eq!(h.join().expect("join"), Err(()), "delay={delay_us}us");
    }
}

/// A grant that precedes the park entirely (the scheduler often grants
/// while the successor is still unwinding from its previous step) must
/// be consumed without blocking, cycle after cycle on the same parker.
#[test]
fn grant_before_park_is_never_lost_across_cycles() {
    let p = Parker::new();
    for _ in 0..10_000 {
        p.grant();
        assert_eq!(p.park(), Ok(()));
    }
}
