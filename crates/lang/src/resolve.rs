//! Name resolution: builds the symbol tables (and the core
//! [`TypeTable`]) that type inference and lowering share.
//!
//! Data types, constructors and functions are three namespaces, each a
//! table indexed by [`Sym`], so a lookup is one array read.

use crate::ast::{SProgram, SType};
use crate::error::{LangError, Span};
use crate::names::{Names, Sym};
use perceus_core::ir::{CtorId, DataId, FunId, TypeTable};
use std::sync::Arc;

/// Built-in functions the resolver knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    Println,
    RefNew,
    TShare,
    Not,
    Min,
    Max,
}

impl Builtin {
    /// The builtin named `s`.
    pub fn of(s: Sym) -> Option<Builtin> {
        Some(match s {
            Sym::PRINTLN => Builtin::Println,
            Sym::REF => Builtin::RefNew,
            Sym::TSHARE => Builtin::TShare,
            Sym::NOT => Builtin::Not,
            Sym::MIN => Builtin::Min,
            Sym::MAX => Builtin::Max,
            _ => return None,
        })
    }

    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Min | Builtin::Max => 2,
            _ => 1,
        }
    }
}

/// Symbol tables for a resolved program.
#[derive(Debug, Clone)]
pub struct Symbols {
    /// The core type table (bool built in, user types appended).
    pub types: TypeTable,
    /// Each data type's parameters, indexed by `DataId` (`bool` has
    /// none).
    pub(crate) params: Vec<Vec<Sym>>,
    /// Parameter counts, indexed by `FunId`.
    arities: Vec<usize>,
    datas: Vec<Option<DataId>>,
    ctors: Vec<Option<CtorId>>,
    funs: Vec<Option<FunId>>,
}

impl Symbols {
    /// The data type named `s`.
    pub fn data(&self, s: Sym) -> Option<DataId> {
        self.datas[s.0 as usize]
    }

    /// The constructor named `s`.
    pub fn ctor(&self, s: Sym) -> Option<CtorId> {
        self.ctors[s.0 as usize]
    }

    /// The top-level function named `s`, with its parameter count.
    pub fn fun(&self, s: Sym) -> Option<(FunId, usize)> {
        self.funs[s.0 as usize].map(|f| (f, self.arities[f.0 as usize]))
    }
}

/// Resolves declarations; checks for duplicates and missing entry
/// points is left to the driver.
pub fn resolve(p: &SProgram) -> Result<Symbols, LangError> {
    let names = &p.names;
    let n = names.len();
    let mut s = Symbols {
        types: TypeTable::new(),
        params: vec![Vec::new()],
        arities: Vec::with_capacity(p.funs.len()),
        datas: vec![None; n],
        ctors: vec![None; n],
        funs: vec![None; n],
    };
    // The built-in bool type participates in resolution like any other.
    s.datas[Sym::BOOL.0 as usize] = Some(TypeTable::BOOL);
    s.ctors[Sym::FALSE.0 as usize] = Some(TypeTable::FALSE);
    s.ctors[Sym::TRUE.0 as usize] = Some(TypeTable::TRUE);

    for td in &p.types {
        if s.data(td.name).is_some() || matches!(td.name, Sym::INT | Sym::UNIT | Sym::REF) {
            return Err(LangError::resolve(
                format!("duplicate or reserved type name `{}`", names.text(td.name)),
                td.span,
            ));
        }
        let id = s.types.add_data(names.shared(td.name).clone());
        s.datas[td.name.0 as usize] = Some(id);
        s.params.push(td.params.clone());
    }
    // Second pass for constructors (fields may mention any data type).
    let unnamed: Arc<str> = Arc::from("");
    for td in &p.types {
        let data = s.data(td.name).expect("declared above");
        for cd in &td.ctors {
            if s.ctor(cd.name).is_some() {
                return Err(LangError::resolve(
                    format!("duplicate constructor `{}`", names.text(cd.name)),
                    cd.span,
                ));
            }
            let field_names = cd
                .fields
                .iter()
                .map(|(n, _)| n.map_or(&unnamed, |n| names.shared(n)).clone())
                .collect();
            let id = s
                .types
                .add_ctor(data, names.shared(cd.name).clone(), field_names);
            s.types.set_ctor_span(id, (cd.span.start, cd.span.end));
            // Validate field types mention only known names / the
            // parent's parameters.
            for (_, ft) in &cd.fields {
                check_type(ft, &td.params, &s, names, cd.span)?;
            }
            s.ctors[cd.name.0 as usize] = Some(id);
        }
    }

    for (i, fd) in p.funs.iter().enumerate() {
        if s.fun(fd.name).is_some() {
            return Err(LangError::resolve(
                format!("duplicate function `{}`", names.text(fd.name)),
                fd.span,
            ));
        }
        if Builtin::of(fd.name).is_some() {
            return Err(LangError::resolve(
                format!("`{}` shadows a builtin", names.text(fd.name)),
                fd.span,
            ));
        }
        s.funs[fd.name.0 as usize] = Some(FunId(i as u32));
        s.arities.push(fd.params.len());
    }
    Ok(s)
}

/// Checks that a surface type only mentions declared names and in-scope
/// type variables.
fn check_type(
    t: &SType,
    tyvars: &[Sym],
    s: &Symbols,
    names: &Names,
    span: Span,
) -> Result<(), LangError> {
    match t {
        SType::Unit => Ok(()),
        SType::Fn(args, ret) => {
            for a in args {
                check_type(a, tyvars, s, names, span)?;
            }
            check_type(ret, tyvars, s, names, span)
        }
        SType::Name(name, args) => {
            for a in args {
                check_type(a, tyvars, s, names, span)?;
            }
            match *name {
                Sym::INT | Sym::UNIT if args.is_empty() => Ok(()),
                Sym::REF if args.len() == 1 => Ok(()),
                _ => {
                    if let Some(d) = s.data(*name) {
                        let params = s.params[d.0 as usize].len();
                        if params != args.len() {
                            return Err(LangError::resolve(
                                format!(
                                    "type `{}` expects {params} parameters, got {}",
                                    names.text(*name),
                                    args.len()
                                ),
                                span,
                            ));
                        }
                        Ok(())
                    } else if tyvars.contains(name) && args.is_empty() {
                        Ok(())
                    } else {
                        Err(LangError::resolve(
                            format!("unknown type `{}`", names.text(*name)),
                            span,
                        ))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn resolves_list() {
        let p = parse("type list<a> { Nil; Cons(head: a, tail: list<a>) }").unwrap();
        let s = resolve(&p).unwrap();
        let sym = |text| p.names.lookup(text).unwrap();
        let cons = s.ctor(sym("Cons")).unwrap();
        assert!(s.ctor(sym("Nil")).is_some());
        assert_eq!(s.types.ctor(cons).arity, 2);
        let list = s.data(sym("list")).unwrap();
        assert_eq!(s.params[list.0 as usize], vec![sym("a")]);
    }

    #[test]
    fn bool_is_predefined() {
        let p = parse("").unwrap();
        let s = resolve(&p).unwrap();
        assert_eq!(s.ctor(Sym::TRUE), Some(TypeTable::TRUE));
        assert_eq!(s.data(Sym::BOOL), Some(TypeTable::BOOL));
    }

    #[test]
    fn rejects_duplicate_ctor() {
        let p = parse("type a { X }\ntype b { X }").unwrap();
        assert!(resolve(&p).is_err());
    }

    #[test]
    fn rejects_unknown_field_type() {
        let p = parse("type t { C(x: missing) }").unwrap();
        let err = resolve(&p).unwrap_err();
        assert!(err.message.contains("unknown type"), "{err}");
    }

    #[test]
    fn rejects_shadowing_builtin() {
        let p = parse("fun println(x: int): int { x }").unwrap();
        assert!(resolve(&p).is_err());
    }

    #[test]
    fn rejects_type_arity_mismatch() {
        let p = parse("type list<a> { Nil }\ntype t { C(x: list<int, int>) }").unwrap();
        assert!(resolve(&p).is_err());
    }
}
