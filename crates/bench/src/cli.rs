//! The plumbing every subcommand shares: the dispatch-table entry, the
//! one argument parser, and the one gate helper.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// One row of the dispatch table in `main.rs`.
pub(crate) struct Command {
    pub(crate) name: &'static str,
    /// One line for `bw-bench help`.
    pub(crate) help: &'static str,
    /// The flags the subcommand accepts: `(--name, placeholder)`, where an
    /// empty placeholder marks a switch and anything else a flag that
    /// takes one value. This is both the grammar [`Args::parse`] enforces
    /// and the text [`Command::usage`] prints.
    pub(crate) flags: &'static [(&'static str, &'static str)],
    pub(crate) run: fn(&Args) -> ExitCode,
}

impl Command {
    pub(crate) fn usage(&self) -> String {
        let mut out = format!("usage: bw-bench {}", self.name);
        for (flag, value) in self.flags {
            let space = if value.is_empty() { "" } else { " " };
            out.push_str(&format!(" [{flag}{space}{value}]"));
        }
        out
    }

    /// Reports a command-line mistake: message and usage on stderr,
    /// exit status 2.
    pub(crate) fn usage_error(&self, message: &str) -> ! {
        eprintln!("bw-bench {}: {message}", self.name);
        eprintln!("{}", self.usage());
        std::process::exit(2)
    }
}

/// A subcommand's parsed command line.
pub(crate) struct Args {
    command: &'static Command,
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses `argv` (everything after the subcommand name) against the
    /// command's flag table.
    ///
    /// # Errors
    ///
    /// An unknown flag, or a value flag with nothing after it.
    pub(crate) fn parse(
        command: &'static Command,
        mut argv: impl Iterator<Item = String>,
    ) -> Result<Args, String> {
        let mut given = Vec::new();
        while let Some(arg) = argv.next() {
            let &(flag, value) = command
                .flags
                .iter()
                .find(|(flag, _)| *flag == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let value = if value.is_empty() {
                String::new()
            } else {
                argv.next()
                    .ok_or_else(|| format!("{flag} requires a value"))?
            };
            given.push((flag, value));
        }
        Ok(Args { command, given })
    }

    fn lookup(&self, flag: &str) -> Option<&str> {
        debug_assert!(
            self.command.flags.iter().any(|(f, _)| *f == flag),
            "{flag} is not in {}'s flag table",
            self.command.name
        );
        // The last occurrence wins, as it did in every per-binary parser.
        let found = self.given.iter().rev().find(|(f, _)| *f == flag);
        found.map(|(_, value)| value.as_str())
    }

    /// Whether the switch `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.lookup(flag).is_some()
    }

    /// The value of `flag`, if given. A value that does not parse as `T`
    /// is a usage error (exit 2).
    pub(crate) fn get<T: FromStr>(&self, flag: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.lookup(flag).map(|text| {
            text.parse()
                .unwrap_or_else(|e| self.usage_error(&format!("{flag} `{text}`: {e}")))
        })
    }

    /// [`Command::usage_error`] for this command line.
    pub(crate) fn usage_error(&self, message: &str) -> ! {
        self.command.usage_error(message)
    }
}

/// Collects a run's failed checks so that one run reports all of them,
/// then turns them into the exit status: each failure on stderr and
/// exit 1, or exit 0 when every check held.
#[derive(Default)]
pub(crate) struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// Records `message()` as a failure unless `ok`; returns `ok` so a
    /// caller can skip work that only makes sense when the check held.
    pub(crate) fn check(&mut self, ok: bool, message: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(message());
        }
        ok
    }

    /// Records a failure that was not a yes/no check (an error value).
    pub(crate) fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    pub(crate) fn finish(self) -> ExitCode {
        for failure in &self.failures {
            eprintln!("FAIL: {failure}");
        }
        if self.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
