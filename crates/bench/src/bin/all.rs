//! Regenerates every paper table and figure in one invocation, writing all
//! artefacts to the output directory (default `results/`). The artefacts'
//! binaries run in parallel, one child process each, and every child
//! spreads its own experiment's independent simulations across
//! `--workers` threads as well.

use std::time::Instant;

use fingrav_bench::render::out_dir;
use fingrav_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(args.clone());
    let dir = out_dir(args).expect("create output directory");
    let t0 = Instant::now();

    let dir_str = dir.display().to_string();
    let scale_flag = match scale {
        Scale::Full => None,
        Scale::Quick => Some("--quick"),
        Scale::Bench => Some("--bench"),
    };
    // Forward an explicit --workers N to every child so the whole artefact
    // tree shards consistently (results are worker-count-invariant), and
    // the checkpointing flags so every child campaign is durable under the
    // same root.
    let workers = fingrav_bench::harness::worker_override();
    let checkpoint_dir = fingrav_bench::harness::checkpoint_override();
    let resume = fingrav_bench::harness::resume_override();
    let serve = fingrav_bench::harness::serve_override();
    let connect = fingrav_bench::harness::connect_override();
    // Transport runs share one listen address, so the children must bind
    // (and connect) one at a time, in the same order on both nodes.
    let sequential = serve.is_some() || connect.is_some();

    // Each artefact is its own binary; running them in-process sequentially
    // would serialize, so spawn the sibling binaries in parallel instead.
    let bins = [
        "table1",
        "fig3",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table2",
        "ablations",
        "recommendations",
    ];
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe dir")
        .to_path_buf();

    let run_bin = |bin: &'static str| {
        let exe = exe_dir.join(bin);
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--out").arg(&dir_str);
        if let Some(flag) = scale_flag {
            cmd.arg(flag);
        }
        if let Some(n) = workers {
            cmd.arg("--workers").arg(n.to_string());
        }
        if let Some(ck) = &checkpoint_dir {
            cmd.arg("--checkpoint-dir").arg(ck);
            if resume {
                cmd.arg("--resume");
            }
        }
        if let Some(addr) = &serve {
            cmd.arg("--serve").arg(addr);
        }
        if let Some(addr) = &connect {
            cmd.arg("--connect").arg(addr);
        }
        let out = cmd
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", exe.display()));
        println!(
            "---- {bin} ({}) ----\n{}{}",
            if out.status.success() { "ok" } else { "FAILED" },
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        (bin, out.status.success())
    };

    let failed: Vec<&str> = if sequential {
        bins.into_iter()
            .map(run_bin)
            .filter(|&(_, ok)| !ok)
            .map(|(bin, _)| bin)
            .collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = bins
                .into_iter()
                .map(|bin| s.spawn(|| run_bin(bin)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("experiment thread"))
                .filter(|&(_, ok)| !ok)
                .map(|(bin, _)| bin)
                .collect()
        })
    };

    if failed.is_empty() {
        println!(
            "\nregenerated all tables and figures into {} in {:.1}s",
            dir.display(),
            t0.elapsed().as_secs_f64()
        );
    } else {
        eprintln!(
            "\nregeneration FAILED after {:.1}s; failed artefacts: {}",
            t0.elapsed().as_secs_f64(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
