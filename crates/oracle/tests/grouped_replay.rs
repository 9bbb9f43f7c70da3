//! The grouped check with NaN rows. The numerics sanitizer aborts on a
//! non-finite value by contract, so `check_program` adds rows that differ
//! only in a NaN payload to its regrouped batch only while the sanitizer is
//! off. This file runs in its own process and forces it off, so the NaN
//! rows reach the grouped-leaf tape the check compares with a dense-leaf
//! one, in every test job, not only in the release-built `fuzz` binary.

use adamel_oracle::{check_program, gen_program_with, GenOptions};

#[test]
fn grouped_replay_with_nan_payload_rows_matches_the_tape() {
    adamel_tensor::sanitize::set_forced(Some(false));
    for blocked in [false, true] {
        for seed in 0..24 {
            let p = gen_program_with(seed, &GenOptions { size: 10, blocked });
            match check_program(&p) {
                Ok(grouped) => assert!(grouped > 0, "seed {seed}: {grouped}"),
                Err(d) => panic!("seed {seed} (blocked {blocked}): {d}"),
            }
        }
    }
    adamel_tensor::sanitize::set_forced(None);
}
