//! Runs one workload through one CPU-model architecture and prints its
//! cycle count and IPC.
//!
//! ```text
//! sim --arch <spec> [--workload NAME] [--events N] [--seed S] [--window I]
//! sim --list-archs
//! sim --list-workloads
//! ```
//!
//! `<spec>` is an [`experiments::arch::Arch`] spelling; `sim
//! --list-archs` prints every family at its defaults. Every CPU-model
//! figure cell's probe label is `<spec>/<workload>` (behind `window/w<W>/`
//! or `buffer/` in the sweeps), so `sim --arch <spec> --workload
//! <workload> --events N [--window W]` reruns that cell of
//! `repro --events N`.

use std::env;
use std::process::ExitCode;

use cpu_model::{CpuConfig, MemorySystem};
use experiments::arch::Arch;
use trace_gen::TraceSource;
use workloads::Workload;

const USAGE: &str =
    "usage: sim --arch <spec> [--workload NAME] [--events N] [--seed S] [--window I]
       sim --list-archs
       sim --list-workloads";

/// One simulation: the five settable values.
#[derive(Debug)]
struct Options {
    arch: Arch,
    workload: Workload,
    events: usize,
    seed: u64,
    window: u64,
}

#[derive(Debug)]
enum Command {
    Run(Options),
    /// `--list-archs`, `--list-workloads` and `--help`: text to print.
    Print(String),
}

fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got `{value}`"))
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut opts = Options {
        arch: Arch::BASELINE,
        workload: workloads::by_name("gcc").expect("gcc analog exists"),
        events: experiments::DEFAULT_EVENTS,
        seed: experiments::SEED,
        window: CpuConfig::paper_default().window,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--arch" => opts.arch = args.next().ok_or("--arch needs a value")?.parse()?,
            "--workload" => {
                let name = args.next().ok_or("--workload needs a value")?;
                opts.workload = workloads::by_name(&name)
                    .ok_or_else(|| format!("unknown workload `{name}` (try --list-workloads)"))?;
            }
            "--events" => opts.events = experiments::cli::parse_events(args.next())?,
            "--seed" => opts.seed = number("--seed", args.next())?,
            "--window" => opts.window = number("--window", args.next())?,
            "--list-archs" => {
                return Ok(Command::Print(
                    Arch::all().map(|a| format!("{a}\n")).collect(),
                ))
            }
            "--list-workloads" => {
                let line = |w: Workload| {
                    format!("{:10} [{}] {}\n", w.name(), w.category(), w.description())
                };
                return Ok(Command::Print(
                    workloads::full_suite().into_iter().map(line).collect(),
                ));
            }
            "--help" | "-h" => return Ok(Command::Print(format!("{USAGE}\n"))),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Command::Run(opts))
}

fn main() -> ExitCode {
    let opts = match parse(env::args().skip(1)) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::Print(text)) => {
            print!("{text}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let cpu = CpuConfig {
        window: opts.window,
        ..CpuConfig::paper_default()
    };
    let trace = opts.workload.source(opts.seed).take_events(opts.events);
    let (report, system) = opts.arch.run(cpu, trace);

    println!("workload     : {}", opts.workload);
    println!("architecture : {} ({})", opts.arch, system.label());
    println!(
        "events       : {} ({} instructions)",
        opts.events, report.instructions
    );
    println!("cycles       : {}", report.cycles);
    println!("IPC          : {:.4}", report.ipc());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        super::parse(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn defaults_and_flags() {
        let Ok(Command::Run(opts)) = parse(&["--arch", "prefetch:in,bus=slow", "--window", "8"])
        else {
            panic!("a run");
        };
        assert_eq!(opts.arch.to_string(), "prefetch:in,bus=slow");
        assert_eq!(opts.workload.name(), "gcc");
        assert_eq!((opts.events, opts.seed, opts.window), (300_000, 1, 8));
    }

    #[test]
    fn zero_events_is_an_error() {
        let err = parse(&["--events", "0"]).unwrap_err();
        assert!(err.contains("empty trace"), "{err}");
    }

    #[test]
    fn bad_specs_and_dropped_flags_are_errors() {
        for args in [
            &["--arch", "victim:both,entries=0"][..],
            &["--arch", "baseline,entries=4"],
            &["--arch", "victim"],
            &["--arch"],
            &["--entries", "4"],
            &["--l1-size", "32"],
            &["--l1-assoc", "4"],
            &["--workload", "nope"],
            &["--seed", "x"],
        ] {
            assert!(parse(args).is_err(), "{args:?} parsed");
        }
    }
}
