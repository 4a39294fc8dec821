//! One module per subcommand; `main.rs` holds the table that names them.

pub mod doclinks;
pub mod lint;
pub mod profile;
