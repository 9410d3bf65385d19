//! The `quartz-serve` daemon binary.
//!
//! ```text
//! quartz-serve [--addr HOST:PORT] [--capacity N] [--default-budget N]
//!              [--no-libraries] [--require-audited]
//! ```
//!
//! Boots against the committed `libraries/*.qtzl` artifacts
//! (zero-generation startup) and serves the `/v1/*` protocol until
//! killed. With `--require-audited`, artifacts must carry a live audit
//! stamp (`quartz-lib audit FILE --write-stamp`, DESIGN.md §11) or the
//! load is refused. See DESIGN.md §10 and the README quickstart.

use quartz_serve::{Daemon, DaemonConfig, Server};

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = DaemonConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = expect_value(&mut args, "--addr"),
            "--capacity" => {
                config.capacity = expect_value(&mut args, "--capacity")
                    .parse()
                    .unwrap_or_else(|_| die("--capacity expects an integer"))
            }
            "--default-budget" => {
                config.default_budget = expect_value(&mut args, "--default-budget")
                    .parse()
                    .unwrap_or_else(|_| die("--default-budget expects an integer"))
            }
            "--no-libraries" => config.route_libraries = false,
            "--require-audited" => config.require_audited = true,
            "--help" | "-h" => {
                println!(
                    "usage: quartz-serve [--addr HOST:PORT] [--capacity N] \
                     [--default-budget N] [--no-libraries] [--require-audited]"
                );
                return;
            }
            other => die(&format!("unknown flag '{other}' (try --help)")),
        }
    }

    let daemon = match Daemon::new(config) {
        Ok(daemon) => daemon,
        Err(e) => die(&format!(
            "failed to boot: {e}\n(hint: run from the repository root so libraries/*.qtzl resolve, \
             or regenerate them with `cargo run --bin quartz-lib -- generate`)"
        )),
    };
    let server = match Server::bind(&addr, daemon) {
        Ok(server) => server,
        Err(e) => die(&format!("failed to bind {addr}: {e}")),
    };
    println!("quartz-serve listening on http://{}", server.addr());
    println!("  POST /v1/submit    GET /v1/status/<id>   GET /v1/result/<id>");
    println!("  POST /v1/cancel/<id>   GET /v1/stream/<id>   GET /v1/health");
    server.run();
}

fn expect_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| die(&format!("{flag} expects a value")))
}

fn die(message: &str) -> ! {
    eprintln!("quartz-serve: {message}");
    std::process::exit(1);
}
