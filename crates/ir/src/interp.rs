//! Executable semantics for the IR: evaluate a basic block's data flow
//! over 32-bit values.
//!
//! Every [`Opcode`] has a concrete meaning (wrapping two's-complement
//! arithmetic, AES helpers over the low byte, a flat word-addressed
//! memory), so a block is not just a latency-annotated graph but a
//! runnable program. The RTL backend (`isegen-rtl`) uses this as the
//! golden model: an AFU datapath generated from a cut must produce
//! exactly the values this interpreter computes.

use crate::{BasicBlock, Opcode};
use isegen_graph::NodeId;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// The AES S-box (FIPS-197, forward direction).
pub const AES_SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// GF(2^8) `xtime` (multiplication by `x` modulo the AES polynomial).
#[inline]
pub fn gf_xtime(b: u8) -> u8 {
    let doubled = b << 1;
    if b & 0x80 != 0 {
        doubled ^ 0x1b
    } else {
        doubled
    }
}

/// GF(2^8) multiplication modulo the AES polynomial.
pub fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = gf_xtime(a);
        b >>= 1;
    }
    acc
}

/// Evaluates one opcode over concrete operand values.
///
/// `Input`, `Load` and `Store` are context-dependent and handled by
/// [`execute`]; calling this function with them returns `None`.
pub fn eval_opcode(op: Opcode, args: &[u32]) -> Option<u32> {
    use Opcode::*;
    Some(match op {
        Input | Load | Store => return None,
        Add => args[0].wrapping_add(args[1]),
        Sub => args[0].wrapping_sub(args[1]),
        Mul => args[0].wrapping_mul(args[1]),
        Mac => args[0].wrapping_mul(args[1]).wrapping_add(args[2]),
        And => args[0] & args[1],
        Or => args[0] | args[1],
        Xor => args[0] ^ args[1],
        Not => !args[0],
        Shl => args[0].wrapping_shl(args[1] & 31),
        Shr => args[0].wrapping_shr(args[1] & 31),
        Sar => ((args[0] as i32).wrapping_shr(args[1] & 31)) as u32,
        RotL => args[0].rotate_left(args[1] & 31),
        Eq => (args[0] == args[1]) as u32,
        Lt => ((args[0] as i32) < (args[1] as i32)) as u32,
        Min => (args[0] as i32).min(args[1] as i32) as u32,
        Max => (args[0] as i32).max(args[1] as i32) as u32,
        Abs => (args[0] as i32).wrapping_abs() as u32,
        Neg => (args[0] as i32).wrapping_neg() as u32,
        Select => {
            if args[0] != 0 {
                args[1]
            } else {
                args[2]
            }
        }
        SBox => AES_SBOX[(args[0] & 0xff) as usize] as u32,
        Xtime => gf_xtime((args[0] & 0xff) as u8) as u32,
        GfMul => gf_mul((args[0] & 0xff) as u8, (args[1] & 0xff) as u8) as u32,
    })
}

/// Error produced by [`execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// An external-input node had no value bound.
    MissingInput {
        /// The input node without a binding.
        node: NodeId,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingInput { node } => {
                write!(f, "no value bound for input node {node}")
            }
        }
    }
}

impl Error for ExecError {}

/// Executes one pass of a basic block's data flow.
///
/// `inputs` binds external-input nodes to values; `memory` is the flat
/// word-addressed store used by `Load`/`Store` (unmapped addresses read
/// as 0). Returns the computed value of every node, indexed by node id
/// (`Store` nodes yield the stored value).
///
/// Memory operations execute in topological order — concretely node-id
/// (program) order, which is one: accesses with no data dependence
/// between them may be reordered, exactly as a compiler would be free to
/// schedule them. Programs that need a specific load/store order must
/// express it through data dependencies.
///
/// # Errors
///
/// [`ExecError::MissingInput`] when an `Input` node is not bound.
pub fn execute(
    block: &BasicBlock,
    inputs: &BTreeMap<NodeId, u32>,
    memory: &mut BTreeMap<u32, u32>,
) -> Result<Vec<u32>, ExecError> {
    let dag = block.dag();
    let mut values = vec![0u32; dag.node_count()];
    let mut args: Vec<u32> = Vec::with_capacity(3);
    for v in dag.node_ids() {
        let op = block.opcode(v);
        args.clear();
        args.extend(dag.preds(v).iter().map(|p| values[p.index()]));
        values[v.index()] = match op {
            Opcode::Input => *inputs.get(&v).ok_or(ExecError::MissingInput { node: v })?,
            Opcode::Load => *memory.get(&args[0]).unwrap_or(&0),
            Opcode::Store => {
                memory.insert(args[0], args[1]);
                args[1]
            }
            _ => eval_opcode(op, &args).expect("non-contextual opcode"),
        };
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockBuilder;

    #[test]
    fn arithmetic_semantics() {
        assert_eq!(eval_opcode(Opcode::Add, &[u32::MAX, 1]), Some(0));
        assert_eq!(eval_opcode(Opcode::Sub, &[0, 1]), Some(u32::MAX));
        assert_eq!(eval_opcode(Opcode::Mac, &[3, 4, 5]), Some(17));
        assert_eq!(
            eval_opcode(Opcode::Sar, &[0xffff_fff0, 2]),
            Some(0xffff_fffc)
        );
        assert_eq!(
            eval_opcode(Opcode::Shr, &[0xffff_fff0, 2]),
            Some(0x3fff_fffc)
        );
        assert_eq!(
            eval_opcode(Opcode::Lt, &[u32::MAX, 0]),
            Some(1),
            "signed compare"
        );
        assert_eq!(eval_opcode(Opcode::Min, &[u32::MAX, 1]), Some(u32::MAX));
        assert_eq!(eval_opcode(Opcode::Select, &[0, 7, 9]), Some(9));
        assert_eq!(eval_opcode(Opcode::Select, &[2, 7, 9]), Some(7));
        assert_eq!(eval_opcode(Opcode::RotL, &[0x8000_0001, 1]), Some(3));
        assert_eq!(eval_opcode(Opcode::Input, &[]), None);
    }

    #[test]
    fn aes_field_semantics() {
        // FIPS-197 test values
        assert_eq!(AES_SBOX[0x00], 0x63);
        assert_eq!(AES_SBOX[0x53], 0xed);
        assert_eq!(gf_xtime(0x57), 0xae);
        assert_eq!(gf_xtime(0xae), 0x47);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe); // the classic FIPS example
        assert_eq!(gf_mul(0x57, 0x02), gf_xtime(0x57));
        assert_eq!(
            eval_opcode(Opcode::SBox, &[0x153]),
            Some(0xed),
            "low byte only"
        );
    }

    #[test]
    fn block_execution() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.op(Opcode::Mul, &[x, y]).unwrap();
        let s = b.op(Opcode::Add, &[m, x]).unwrap();
        let block = b.build().unwrap();
        let inputs = BTreeMap::from([(x, 6u32), (y, 7u32)]);
        let mut mem = BTreeMap::new();
        let values = execute(&block, &inputs, &mut mem).unwrap();
        assert_eq!(values[m.index()], 42);
        assert_eq!(values[s.index()], 48);
    }

    #[test]
    fn memory_semantics() {
        let mut b = BlockBuilder::new("t");
        let addr = b.input("addr");
        let val = b.input("val");
        let st = b.op(Opcode::Store, &[addr, val]).unwrap();
        // the load's address depends on the store's value, so it is
        // ordered after it: addr2 = addr + (st ^ st) = addr
        let z = b.op(Opcode::Xor, &[st, st]).unwrap();
        let addr2 = b.op(Opcode::Add, &[addr, z]).unwrap();
        let ld = b.op(Opcode::Load, &[addr2]).unwrap();
        let block = b.build().unwrap();
        let inputs = BTreeMap::from([(addr, 0x100u32), (val, 0xbeefu32)]);
        let mut mem = BTreeMap::new();
        let values = execute(&block, &inputs, &mut mem).unwrap();
        assert_eq!(values[st.index()], 0xbeef);
        assert_eq!(values[ld.index()], 0xbeef, "dependent load sees the store");
        assert_eq!(mem.get(&0x100), Some(&0xbeef));
        // an independent load in a fresh memory reads 0
        let mut fresh = BTreeMap::new();
        let mut b2 = BlockBuilder::new("t2");
        let a2 = b2.input("a");
        let l2 = b2.op(Opcode::Load, &[a2]).unwrap();
        let block2 = b2.build().unwrap();
        let v2 = execute(&block2, &BTreeMap::from([(a2, 4u32)]), &mut fresh).unwrap();
        assert_eq!(v2[l2.index()], 0);
    }

    #[test]
    fn missing_input_is_an_error() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        b.op(Opcode::Not, &[x]).unwrap();
        let block = b.build().unwrap();
        let mut mem = BTreeMap::new();
        let err = execute(&block, &BTreeMap::new(), &mut mem).unwrap_err();
        assert_eq!(err, ExecError::MissingInput { node: x });
        assert!(err.to_string().contains("n0"));
    }

    #[test]
    fn gf_mul_is_commutative_and_distributive() {
        for a in [0u8, 1, 0x53, 0x80, 0xff] {
            for b in [0u8, 1, 0x13, 0xca, 0xff] {
                assert_eq!(gf_mul(a, b), gf_mul(b, a));
                // distributivity over xor with a third point
                let c = 0x1b;
                assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
            }
        }
    }
}
