//! `rapid` — command-line atomicity checking on trace logs.

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (code, written) = match rapid_cli::parse_args(&args) {
        Err(e) => (2, emit(io::stderr().lock(), &format!("error: {e}\n\n{}", rapid_cli::usage()))),
        Ok(command) => match rapid_cli::run(command) {
            Ok(text) => (0, emit(io::stdout().lock(), &text)),
            Err(e) => (1, emit(io::stderr().lock(), &format!("error: {e}\n"))),
        },
    };
    match written {
        Ok(()) => ExitCode::from(code),
        // A reader that went away (`rapid help | head -1`) wanted no more
        // output: exit quietly with the status the run earned.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::from(code),
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: writing output: {e}");
            ExitCode::from(code.max(1))
        }
    }
}

fn emit(mut out: impl Write, text: &str) -> io::Result<()> {
    out.write_all(text.as_bytes())?;
    out.flush()
}
