//! One module per subcommand; `main.rs` holds the table that names them.

pub mod ablations;
pub mod calibrate;
pub mod doclinks;
pub mod fig2;
pub mod fig6_hdd;
pub mod lint;
pub mod power;
pub mod precision_sweep;
pub mod profile;
pub mod sla_study;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table6;
