#![allow(clippy::disallowed_methods)]
//! Golden regression for the checkpoint campaign's MTTR table.
//!
//! Runs the full default state-size sweep — cold and rehydrate arms on the
//! same seed — renders the MTTR table plus the failure-rate crossover at
//! the calibrated 256 KiB size, and compares byte-for-byte against the
//! committed recording at `tests/golden/checkpoint-mttr.txt`. The golden is
//! the acceptance artifact for the crash-safe store: it must show a cell
//! where rehydration beats the cold MTTR *and* a cell where the plain
//! restart wins.
//!
//! To re-record after an intentional behaviour change:
//!
//! ```text
//! GOLDEN_RECORD=1 cargo test -p rr-harness --test checkpoint
//! ```

use rr_harness::checkpoint::{crossover_table, mttr_table, CheckpointConfig};
use rr_harness::golden::compare_or_record;

#[test]
fn checkpoint_mttr_table_matches_golden() {
    let cfg = CheckpointConfig::default();
    let (table, pairs) = mttr_table(&cfg);

    // The two regimes must be present before we even look at the golden:
    // rehydrate wins at the smallest state size, cold wins at the largest.
    let (small_cold, small_rehy) = &pairs[0];
    assert!(
        small_rehy.mean_mttr_s() < small_cold.mean_mttr_s(),
        "smallest state: rehydrate ({:.2}s) must beat cold ({:.2}s)",
        small_rehy.mean_mttr_s(),
        small_cold.mean_mttr_s()
    );
    let (big_cold, big_rehy) = &pairs[pairs.len() - 1];
    assert!(
        big_cold.mean_mttr_s() < big_rehy.mean_mttr_s(),
        "largest state: cold ({:.2}s) must beat rehydrate ({:.2}s)",
        big_cold.mean_mttr_s(),
        big_rehy.mean_mttr_s()
    );

    let calibrated = pairs
        .iter()
        .find(|(c, _)| (c.state_kb - 256.0).abs() < f64::EPSILON)
        .expect("default sweep includes the calibrated 256 KiB size");
    let sweep = crossover_table(&calibrated.0, &calibrated.1);
    let actual = format!("{}\n{}", table.render(), sweep.render());

    let drift = compare_or_record("checkpoint-mttr.txt", &actual);
    assert!(drift.is_none(), "{}", drift.unwrap_or_default());
}
