//! The λ¹ core intermediate representation (Fig. 4 of the paper) plus
//! the pass-introduced reference-counting instruction forms (Fig. 1).

pub mod builder;
pub mod callgraph;
pub mod erase;
pub mod expr;
pub mod fv;
pub mod pretty;
pub mod program;
pub mod var;
pub mod wf;

pub use erase::{erase, erase_program};
pub use expr::{Arm, Expr, Lambda, Lit, PrimOp};
pub use program::{CtorId, CtorInfo, DataId, DataInfo, FunDef, FunId, Program, TypeTable};
pub use var::{Var, VarGen, VarSet};
