//! `ufcbench` — the repository benchmark (see the library docs).
//!
//! ```text
//! ufcbench --workload NAME --seed N --seconds S --trace 0|1
//! ufcbench diff BASE NEW
//! ```
//!
//! The binary is also the socket engine's worker: the coordinator spawns it
//! with `--connect HOST:PORT --process P --session S --incarnation I`.

use std::path::Path;
use std::process::ExitCode;

use ufcbench::host::Host;
use ufcbench::json::result_line;
use ufcbench::workloads::{run, Config, Scale, Workload};

const USAGE: &str = "usage: ufcbench --workload week_paper|wide_32x8 \
                     --seed N --seconds S --trace 0|1\n       ufcbench diff BASE NEW";

/// Where a traced run writes its spans and result line.
const OUT_DIR: &str = ".bench_out";

fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    let pos = args
        .iter()
        .position(|a| a == flag)
        .ok_or(format!("missing {flag}"))?;
    args.get(pos + 1)
        .map(String::as_str)
        .ok_or(format!("{flag} needs a value"))
}

fn parse_config(args: &[String]) -> Result<Config, String> {
    let known = ["--workload", "--seed", "--seconds", "--trace"];
    for pair in args.chunks(2) {
        if !known.contains(&pair[0].as_str()) {
            return Err(format!("unknown argument {:?}", pair[0]));
        }
    }
    let name = flag_value(args, "--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = flag_value(args, "--seed")?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
    let seconds = flag_value(args, "--seconds")?;
    let seconds: f64 = seconds
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or(format!("bad --seconds {seconds:?}"))?;
    let trace = match flag_value(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    let worker = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
        worker,
    })
}

fn worker_main(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<_, String> {
        let num = |flag: &str| -> Result<u64, String> {
            let v = flag_value(args, flag)?;
            v.parse().map_err(|_| format!("bad {flag} {v:?}"))
        };
        let auth = match flag_value(args, "--auth-key") {
            Ok(hex) => Some(ufc_distsim::AuthKey::from_hex(hex).map_err(|e| e.to_string())?),
            Err(_) => None,
        };
        Ok((
            flag_value(args, "--connect")?.to_owned(),
            usize::try_from(num("--process")?).map_err(|e| e.to_string())?,
            num("--session")?,
            u32::try_from(num("--incarnation").unwrap_or(0)).map_err(|e| e.to_string())?,
            auth,
        ))
    })();
    let (addr, process, session, incarnation, auth) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ufcbench worker: {e}");
            return ExitCode::FAILURE;
        }
    };
    match ufc_distsim::worker::run_worker(&addr, process, session, incarnation, auth.as_ref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ufcbench worker[{process}]: {e}");
            ExitCode::FAILURE
        }
    }
}

fn diff_main(args: &[String]) -> Result<(), String> {
    let [base, new] = args else {
        return Err(USAGE.to_owned());
    };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        ufcbench::diff::load(&text).map_err(|e| format!("{p}: {e}"))
    };
    print!("{}", ufcbench::diff::render(&read(base)?, &read(new)?));
    Ok(())
}

fn bench_main(args: &[String]) -> Result<(), String> {
    let cfg = parse_config(args)?;
    let host = Host::probe();
    let threads = cfg.workload.solver_threads();
    let processes = cfg.workload.worker_processes(cfg.trace);
    println!(
        "host: available_parallelism {} cores {}; run: {} solver thread(s), {} worker process(es)",
        host.available_parallelism, host.cores, threads, processes
    );
    host.admit(threads, processes)?;
    let report = run(&cfg)?;
    for note in &report.notes {
        println!("{note}");
    }
    let line = result_line(
        report.correct,
        report.attempted,
        report.failed,
        &report.metrics,
    );
    if let Some(spans) = &report.spans_jsonl {
        let dir = Path::new(OUT_DIR);
        std::fs::create_dir_all(dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let stem = format!("{}-seed{}", cfg.workload.name(), cfg.seed);
        let spans_path = dir.join(format!("{stem}.spans.jsonl"));
        let result_path = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&spans_path, spans).map_err(|e| format!("{}: {e}", spans_path.display()))?;
        std::fs::write(&result_path, format!("{line}\n"))
            .map_err(|e| format!("{}: {e}", result_path.display()))?;
        println!(
            "trace: spans in {}, per-layer result in {} (compare two with `ufcbench diff`)",
            spans_path.display(),
            result_path.display()
        );
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--connect") => return worker_main(&args),
        Some("diff") => diff_main(&args[1..]),
        _ => bench_main(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ufcbench: {e}");
            ExitCode::from(2)
        }
    }
}
