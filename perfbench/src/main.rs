//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The host spans of the run are written to
//! `.perfbench_out/` in the working directory.

use std::process::ExitCode;

use perfbench::{Opts, Scale, WORKLOADS};

fn parse() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut outcome) = perfbench::run(&workload, opts) else {
        return ExitCode::from(2);
    };
    let spans = std::path::Path::new(".perfbench_out").join(format!(
        "{workload}-seed{}-trace{}.spans.json",
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = perfbench::probe::write_spans(&spans, &outcome.spans) {
        outcome
            .notes
            .push(format!("could not write {}: {e}", spans.display()));
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", outcome.result_line(opts.trace));
    ExitCode::SUCCESS
}
