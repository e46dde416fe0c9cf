"""The variant check the reader and term tests compare terms with."""

from mdprolog.terms import BindingStore, Struct, Var, is_number


def variant_of(t1, t2, store=None):
    """True when the terms are equal up to a variable bijection."""
    store = store or BindingStore()
    fwd, bwd = {}, {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = store.deref(a)
        b = store.deref(b)
        if isinstance(a, Var) and isinstance(b, Var):
            if fwd.setdefault(a, b) is not b or bwd.setdefault(b, a) is not a:
                return False
        elif isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        elif is_number(a) and is_number(b):
            if not (type(a) is type(b) and a == b):
                return False
        elif a is not b:
            return False
    return True
