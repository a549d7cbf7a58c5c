//! Command-line entry point; `run.py` in this directory builds and calls
//! it. Prints progress lines, then the JSON result line last. Exits 0 with
//! a correct run, 1 when a correctness check failed (after printing the
//! result), and 2 without a result when the run could not be made.

use citrus_perfbench::{load_threads, parse_args, program, run};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = program::check_env(std::env::vars().map(|(k, _)| k))
        .and_then(|()| parse_args(&args))
        .and_then(|args| {
            println!("{}", program::describe());
            println!(
                "workload {} seed {} seconds {} mode {:?}; {} load threads on {} CPUs",
                args.workload.name(),
                args.seed,
                args.seconds,
                args.mode,
                load_threads(),
                std::thread::available_parallelism().map_or(0, |n| n.get()),
            );
            let report = run(&args)?;
            Ok((report.to_json()?, report))
        });
    match outcome {
        Ok((json, report)) => {
            for p in report.problems() {
                eprintln!("correctness check failed: {p}");
            }
            println!("{json}");
            std::process::exit(if report.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("citrus-perfbench: {e}");
            std::process::exit(2);
        }
    }
}
