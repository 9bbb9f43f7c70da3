//! Std-only fuzz driver for the differential oracle.
//!
//! Generates seeded random tape programs, checks the production forward and
//! backward passes against the `f64` oracle and a grouped-leaf tape against
//! a dense-leaf one, and on the first discrepancy shrinks the program to a
//! minimal reproducer printed as a paste-able test.
//!
//! ```text
//! cargo run -p adamel-oracle --bin fuzz -- --iters 500 --seed 42 --size 12
//! ```

use adamel_oracle::{check_program, gen_program_with, render_reproducer, shrink, GenOptions};
use std::process::ExitCode;

struct Args {
    iters: u64,
    seed: u64,
    size: usize,
    blocked: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { iters: 100, seed: 0x0adae1, size: 10, blocked: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--iters" => {
                args.iters = value("--iters")?.parse().map_err(|e| format!("--iters: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--size" => {
                args.size = value("--size")?.parse().map_err(|e| format!("--size: {e}"))?;
            }
            "--blocked" => args.blocked = true,
            "--help" | "-h" => {
                println!("usage: fuzz [--iters N] [--seed S] [--size K] [--blocked]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "fuzzing {} programs (seed {}, size {}{}) against the f64 oracle",
        args.iters,
        args.seed,
        args.size,
        if args.blocked { ", blocked-kernel shapes" } else { "" }
    );
    let mut grouped_tape = 0usize;
    for i in 0..args.iters {
        // Mix the iteration index into the seed so each program is
        // independent yet the whole run replays from --seed alone.
        let seed = args.seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let program =
            gen_program_with(seed, &GenOptions { size: args.size, blocked: args.blocked });
        let d = match check_program(&program) {
            Ok(grouped) => {
                grouped_tape += grouped;
                if (i + 1) % 50 == 0 {
                    println!("  {}/{} ok", i + 1, args.iters);
                }
                continue;
            }
            Err(d) => d,
        };
        eprintln!("iteration {i} (program seed {seed}): {d}");
        let minimal = shrink(&program);
        eprintln!("shrunk from {} to {} instructions", program.insts.len(), minimal.insts.len());
        eprintln!("\n// paste into crates/oracle/tests/differential.rs:\n");
        eprintln!("{}", render_reproducer(&minimal));
        return ExitCode::FAILURE;
    }
    println!("no discrepancies in {} programs", args.iters);
    println!(
        "grouped-leaf tape matched the dense-leaf tape on {grouped_tape} values and gradients"
    );
    ExitCode::SUCCESS
}
