//! `psvd` binary entry point; all logic lives in the library so tests can
//! drive it in-process.

use std::io::{self, ErrorKind, Write};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match psvd_cli::run(&argv) {
        Ok(lines) => {
            let mut out = io::stdout().lock();
            for line in lines {
                if let Err(e) = writeln!(out, "{line}") {
                    // A closed pipe (`psvd svd … | head -2`) ends the output
                    // quietly; anything else is a real write failure.
                    if e.kind() == ErrorKind::BrokenPipe {
                        return;
                    }
                    eprintln!("error: writing stdout: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
