//! One module per subcommand; `main.rs` holds the table that names them.

pub(crate) mod doclinks;
pub(crate) mod lint;
pub(crate) mod profile;
