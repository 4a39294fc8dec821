//! One module per subcommand; `main.rs` holds the table that names them.

pub mod doclinks;
pub mod fig2;
pub mod fig6_hdd;
pub mod lint;
pub mod profile;
pub mod table2;
pub mod table3;
pub mod table4;
