//! Regenerates Table II: the BW NPU ISA reference, rendered from the
//! implementation itself so the printed table can never drift from the
//! executable semantics.

use crate::render_table;
use bw_core::isa::Opcode;

/// Builds the Table II report: the ISA reference, rendered from the
/// implementation's opcodes.
pub fn table2_report() -> String {
    let mut out = String::new();
    let rows: Vec<(Opcode, &str, &str, &str, &str, &str)> = vec![
        (
            Opcode::VRd,
            "Vector read",
            "-",
            "MemID",
            "Memory index",
            "V",
        ),
        (
            Opcode::VWr,
            "Vector write",
            "V",
            "MemID",
            "Memory index",
            "-",
        ),
        (
            Opcode::MRd,
            "Matrix read",
            "-",
            "MemID (NetQ or DRAM only)",
            "Memory index",
            "M",
        ),
        (
            Opcode::MWr,
            "Matrix write",
            "M",
            "MemID (MatrixRf or DRAM only)",
            "Memory index",
            "-",
        ),
        (
            Opcode::MvMul,
            "Matrix-vector multiply",
            "V",
            "MatrixRf index",
            "-",
            "V",
        ),
        (
            Opcode::VvAdd,
            "PWV addition",
            "V",
            "AddSubVrf index",
            "-",
            "V",
        ),
        (
            Opcode::VvASubB,
            "PWV subtraction, IN is minuend",
            "V",
            "AddSubVrf index",
            "-",
            "V",
        ),
        (
            Opcode::VvBSubA,
            "PWV subtraction, IN is subtrahend",
            "V",
            "AddSubVrf index",
            "-",
            "V",
        ),
        (Opcode::VvMax, "PWV max", "V", "AddSubVrf index", "-", "V"),
        (
            Opcode::VvMul,
            "Hadamard product",
            "V",
            "MultiplyVrf index",
            "-",
            "V",
        ),
        (Opcode::VRelu, "PWV ReLU", "V", "-", "-", "V"),
        (Opcode::VSigm, "PWV sigmoid", "V", "-", "-", "V"),
        (Opcode::VTanh, "PWV hyperbolic tangent", "V", "-", "-", "V"),
        (
            Opcode::SWr,
            "Write scalar control register",
            "-",
            "Scalar reg index",
            "Scalar value",
            "-",
        ),
        (
            Opcode::EndChain,
            "End instruction chain",
            "-",
            "-",
            "-",
            "-",
        ),
    ];
    let table: Vec<Vec<String>> = rows
        .into_iter()
        .map(|(op, desc, input, op1, op2, output)| {
            vec![
                op.mnemonic().to_owned(),
                desc.to_owned(),
                input.to_owned(),
                op1.to_owned(),
                op2.to_owned(),
                output.to_owned(),
            ]
        })
        .collect();
    outln!(out, "Table II: the single-threaded BW NPU ISA");
    outln!(
        out,
        "(PWV = point-wise vector operation; IN/OUT are the implicit chain operands)\n"
    );
    outln!(
        out,
        "{}",
        render_table(
            &["name", "description", "IN", "operand 1", "operand 2", "OUT"],
            &table
        )
    );
    out
}
