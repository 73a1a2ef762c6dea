//! Arithmetic shared by the pre-decoded executor and the reference
//! interpreter — one definition so the two engines cannot drift.

use brepl_ir::{BinOp, CmpOp, Value};

use crate::error::RunError;

#[inline]
pub(crate) fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, RunError> {
    use BinOp::*;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            let v = match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(RunError::DivisionByZero);
                    }
                    x.wrapping_div(y)
                }
                Rem => {
                    if y == 0 {
                        return Err(RunError::DivisionByZero);
                    }
                    x.wrapping_rem(y)
                }
                And => x & y,
                Or => x | y,
                Xor => x ^ y,
                Shl => x.wrapping_shl(y as u32 & 63),
                Shr => x.wrapping_shr(y as u32 & 63),
            };
            Ok(Value::Int(v))
        }
        (Value::Float(x), Value::Float(y)) => {
            let v = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Rem => x % y,
                And | Or | Xor | Shl | Shr => {
                    return Err(RunError::TypeError("bitwise op on floats"))
                }
            };
            Ok(Value::Float(v))
        }
        _ => Err(RunError::TypeError("mixed int/float arithmetic")),
    }
}

#[inline]
pub(crate) fn eval_cmp(op: CmpOp, a: Value, b: Value) -> Result<bool, RunError> {
    use CmpOp::*;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(match op {
            Eq => x == y,
            Ne => x != y,
            Lt => x < y,
            Le => x <= y,
            Gt => x > y,
            Ge => x >= y,
        }),
        (Value::Float(x), Value::Float(y)) => Ok(match op {
            Eq => x == y,
            Ne => x != y,
            Lt => x < y,
            Le => x <= y,
            Gt => x > y,
            Ge => x >= y,
        }),
        _ => Err(RunError::TypeError("mixed int/float comparison")),
    }
}
