//! Standard output for the command-line tools (`hpfrun`, `hpfmap`, and
//! `hpf-bench`'s `repro`).

use std::fmt;
use std::io::{self, ErrorKind, Write};

/// A tool's standard output, written with `write!`/`writeln!`, that never
/// panics. The field names the tool in its error line.
///
/// A reader that closes early (`hpfrun … | head -2`) is not an error: the
/// rest of the output is dropped, nothing is said, and the run goes on to
/// the exit status it has unpiped. Any other write error (a full disk)
/// prints one `<tool>: cannot write output: …` line and exits 1.
pub struct ToolOutput(pub &'static str);

impl ToolOutput {
    /// Write formatted text: what `write!` and `writeln!` call. Whole
    /// lines reach the stream as they are written.
    pub fn write_fmt(&self, args: fmt::Arguments<'_>) {
        match io::stdout().write_fmt(args) {
            Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                eprintln!("{}: cannot write output: {e}", self.0);
                std::process::exit(1);
            }
            _ => {}
        }
    }
}
