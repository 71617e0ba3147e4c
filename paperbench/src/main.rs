//! `gvc-paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a readable report, then one JSON result line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! the benchmark's spans off; with `--trace 1` they are the per-layer
//! ones.

use gvc_paperbench::harness::{end_to_end, Outcome};
use gvc_paperbench::layers::per_layer;
use gvc_paperbench::workloads::{Sizes, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !s.is_finite() || s < 0.0 {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload {} is required", names.join("|")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace 0|1 is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gvc-paperbench: {e}");
            eprintln!(
                "usage: gvc-paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let Outcome { metrics, ledger, runs, digest, host } = if args.trace {
        per_layer(args.workload, Sizes::PAPER, args.seed)
    } else {
        end_to_end(args.workload, Sizes::PAPER, args.seed, args.seconds)
    };

    println!(
        "workload {} seed {} ({} runs, trace {})",
        args.workload.name(),
        args.seed,
        runs,
        u8::from(args.trace)
    );
    for (name, value, unit) in metrics.iter() {
        // Sub-millisecond figures (set-up times) keep their digits.
        if value != 0.0 && value.abs() < 1e-3 {
            println!("  {name:<40} {value:>16.6e} {unit}");
        } else {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }
    println!(
        "  {:<40} {:>16.6} ratio ({} of {} operations failed)",
        "ops_failed_frac",
        ledger.failed_frac(),
        ledger.failed,
        ledger.attempted
    );
    if let Some((raw_wall_s, k)) = host {
        println!("  times above are scaled by the host-speed probe: median factor {k:.4},");
        println!("  median wall_s as measured {raw_wall_s:.6} s");
    }
    if let Some(d) = digest {
        println!("  digest {d:#018x}");
    }
    for f in &ledger.failures {
        println!("  FAILED {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        metrics.to_json()
    );
}
