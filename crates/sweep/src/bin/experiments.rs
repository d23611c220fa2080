//! `aba-experiments` — regenerate the tables and figures of
//! EXPERIMENTS.md.
//!
//! ```text
//! aba-experiments [--exp all|e1|e2|...] [--quick] [--seed N] [--out DIR] [--list]
//!                 [--quiet]
//! ```

use aba_obs::log::{self, Verbosity};
use aba_sweep::experiments::{self, ExpParams};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    exp: String,
    quick: bool,
    seed: u64,
    out: Option<PathBuf>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        exp: "all".to_string(),
        quick: false,
        seed: 0,
        out: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => args.exp = it.next().ok_or("--exp needs a value")?,
            "--quick" => args.quick = true,
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--out" => args.out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--list" => args.list = true,
            "--quiet" => log::set_verbosity(Verbosity::Quiet),
            "--help" | "-h" => {
                println!(
                    "usage: aba-experiments [--exp all|e1..e16] [--quick] [--seed N] \
                     [--out DIR] [--list] [--quiet]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        for def in experiments::all() {
            println!("{:4}  {}", def.id, def.title);
        }
        return ExitCode::SUCCESS;
    }

    let params = ExpParams {
        quick: args.quick,
        seed: args.seed,
    };

    let defs: Vec<_> = if args.exp == "all" {
        experiments::all()
    } else {
        match experiments::by_id(&args.exp) {
            Some(d) => vec![d],
            None => {
                eprintln!("unknown experiment '{}'; try --list", args.exp);
                return ExitCode::FAILURE;
            }
        }
    };

    for def in defs {
        log::info(&format!("running {} — {} ...", def.id, def.title));
        #[allow(clippy::disallowed_methods)] // stderr progress timing, never in results
        let started = std::time::Instant::now();
        let report = (def.runner)(&params);
        log::info(&format!(
            "  done in {:.1}s",
            started.elapsed().as_secs_f64()
        ));
        println!("{}", report.to_markdown());
        if let Some(dir) = &args.out {
            if let Err(e) = report.write_to(dir) {
                log::warn(&format!("error writing {}: {e}", def.id));
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
