//! `dtask-node` — worker-process launcher for the deployment layer.
//!
//! Dials a scheduler started with [`Cluster::listen`], performs the
//! registration handshake, and serves executor slots until the hub says
//! goodbye or the connection dies. The op registry mirrors what the
//! in-process examples install: the standard ops plus the distributed-array
//! ops, so graphs built by `darray` clients run unmodified on this node.
//!
//! ```text
//! dtask-node --connect 127.0.0.1:7711 [--slots N] [--mem-budget BYTES]
//!            [--capability NAME]... [--connect-timeout-ms N]
//!            [--handshake-timeout-ms N]
//! ```
//!
//! Exit codes: `0` orderly goodbye, `1` handshake/connect failure, `2` bad
//! command line.
//!
//! [`Cluster::listen`]: deisa_repro::dtask::Cluster::listen

#![forbid(unsafe_code)]

use deisa_repro::darray;
use deisa_repro::dtask::{run_node, NodeConfig, OpRegistry};
use std::time::Duration;

const USAGE: &str = "usage: dtask-node --connect HOST:PORT [--slots N] \
[--mem-budget BYTES] [--capability NAME]... [--connect-timeout-ms N] \
[--handshake-timeout-ms N]";

fn required(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    match args.next() {
        Some(v) => v,
        None => {
            eprintln!("dtask-node: {flag} needs a value\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn parsed<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let raw = required(args, flag);
    match raw.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("dtask-node: {flag} got unparsable value {raw:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut config = NodeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => config.connect = required(&mut args, "--connect"),
            "--slots" => config.slots = parsed(&mut args, "--slots"),
            "--mem-budget" => config.mem_budget = Some(parsed(&mut args, "--mem-budget")),
            "--capability" => config
                .capabilities
                .push(required(&mut args, "--capability")),
            "--connect-timeout-ms" => {
                config.connect_timeout =
                    Duration::from_millis(parsed(&mut args, "--connect-timeout-ms"))
            }
            "--handshake-timeout-ms" => {
                config.handshake_timeout =
                    Duration::from_millis(parsed(&mut args, "--handshake-timeout-ms"))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("dtask-node: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let registry = OpRegistry::with_std_ops();
    darray::register_array_ops(&registry);

    eprintln!("dtask-node: connecting to {}", config.connect);
    match run_node(config, registry) {
        Ok(report) => {
            eprintln!(
                "dtask-node: worker {} ({} slots) exiting: {}",
                report.worker, report.slots, report.reason
            );
        }
        Err(e) => {
            eprintln!("dtask-node: {e}");
            std::process::exit(1);
        }
    }
}
