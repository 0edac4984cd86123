"""Reading and writing the ``.sbs`` model format.

Layout (``//`` comments and whitespace are free-form)::

    system "name"

    observables {
      p: int[0..1];
      eat: bool;
      mode: enum {hunting, resting};
    }

    behaviour {
      state q0 {p = 0, eat = true, mode = hunting} init;
      state q1 {p = 1, eat = false, mode = resting};
      q0 -> q1;
    }

    structure {
      state r0: "p == 0 && eat" init;
      state r1: "p == 1";
      r0 -["!eat"]-> r1;
    }

State declarations come before transitions inside each block.  Quoted
strings hold constraint formula syntax.  Statements are read in runs: a
stretch of at most :data:`RUN_LENGTH` characters that statements of one
block can hold, from a statement head to a ``;``, is one token of
:data:`STATEMENTS`, and one ``findall`` splits it into its statements'
parts.  A behaviour run holds ``state q {...} init;`` and ``a -> b;``; a
structure run holds ``state r: "..." init;`` and ``a -["..."]-> b;``,
whose quoted formulas hold no backslash.  The body of a state in a run is
split at its commas, and each distinct assignment text in it is matched
and typed once per load (:class:`_Items`).  A run that holds anything but
statements and blanks, and any text that reader rejects, is read again
token by token (:data:`LEXER`), which reports every error.
``save`` emits a canonical form: observables in declaration order, states
sorted by id, transitions sorted, formulas reprinted with canonical spacing;
``save(load(text))`` is a fixed point and ``load(save(sys))`` equals ``sys``.
A quoted string cannot hold a newline, so ``save`` refuses a system whose
name does, and it refuses a state, observable or enum value whose name is
no identifier.
"""

import pathlib
import re
from functools import partial

from . import _lex
from . import formula as F
from .errors import FormulaError, ModelError, ModelFileError
from .model import BehaviourMachine, ObservationMap, SBSystem, StructureMachine

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME = partial(re.fullmatch, _ID)  # ``re`` compiles it on first use, as below
LEXER = _lex.Lexer(
    [  # the most frequent first, each longer operator before its prefix
        ("ident", _ID),
        ("int", r"[0-9]+"),
        ("string", r'"(?:[^"\\\n]|\\.)*"'),
        ("semi", r";"),
        ("dotdot", r"\.\."),
        ("arrowl", r"-\["),
        ("arrowr", r"\]->"),
        ("arrow", r"->"),
        ("lbrace", r"\{"),
        ("rbrace", r"\}"),
        ("lbracket", r"\["),
        ("rbracket", r"\]"),
        ("colon", r":"),
        ("comma", r","),
        ("assign", r"="),
        ("minus", r"-"),
    ],
    ModelFileError,
)

_BLANKS = r"[ \t\r\n]*"

RUN_LENGTH = 8192  # characters in one ``run`` token at most

# The token grammar's rules behind two that each take a run of one block's
# statements: from a statement head, ``state q {`` or ``a ->`` in the
# behaviour block and ``state r:`` or ``a -[`` in the structure block, the
# longest stretch of characters those statements can hold that ends with
# ``;`` and is at most RUN_LENGTH long.  A structure run takes ``"`` and
# the characters of a formula but no backslash, so a string the splitter
# finds in it is a string token without escapes.  A run starts where the
# token grammar would start a token, a comment or any other character ends
# it, and the splitters below check that it holds whole statements, so
# that it ends where the token grammar would too.  A one-character repeat
# keeps no backtracking state per character, even on Python 3.10, and the
# bound keeps both the run and the step back to its last ``;`` short.
_RUN = (
    rf"(?=state[ \t\r\n]+{_ID}{_BLANKS}\{{|{_ID}{_BLANKS}->)"
    rf"[A-Za-z0-9_ \t\r\n{{}}=,;>-]{{0,{RUN_LENGTH - 1}}};"
)
_STRUCTURE_RUN = (
    rf"(?=state[ \t\r\n]+{_ID}{_BLANKS}:|{_ID}{_BLANKS}-\[)"
    rf'[A-Za-z0-9_ \t\r\n:;"\[\]!=<>&|()+-]{{0,{RUN_LENGTH - 1}}};'
)
STATEMENTS = _lex.Lexer(
    [("run", _RUN), ("structure_run", _STRUCTURE_RUN), *LEXER.rules], ModelFileError
)
# The statements' parts in a run of each block.  Each statement ends with
# the blanks after it, so the next starts where the token grammar would
# start it; anything else in the run matches the last alternative, which
# captures nothing.  ``re`` compiles each pattern on its first use and
# keeps it, so importing this module compiles none of them.
#
# (state id, valuation text, "init" or "", source, target)
_PARTS = partial(
    re.findall,
    rf"state[ \t\r\n]+({_ID}){_BLANKS}\{{([^}}]*)\}}{_BLANKS}(init)?{_BLANKS};{_BLANKS}"
    rf"|({_ID}){_BLANKS}->{_BLANKS}({_ID}){_BLANKS};{_BLANKS}"
    r"|[\s\S]",
)
# (state id, label text, "init" or "", source, invariant text, target)
_STRUCTURE_PARTS = partial(
    re.findall,
    rf'state[ \t\r\n]+({_ID}){_BLANKS}:{_BLANKS}"([^"\\\n]*)"{_BLANKS}(init)?{_BLANKS};{_BLANKS}'
    rf'|({_ID}){_BLANKS}-\[{_BLANKS}"([^"\\\n]*)"{_BLANKS}\]->{_BLANKS}({_ID}){_BLANKS};{_BLANKS}'
    r"|[\s\S]",
)
# (name, "-" and blanks or None, digits or None, identifier or None) of an
# assignment, the text between two commas of the body of a state in a run
_ITEM = partial(
    re.fullmatch,
    rf"{_BLANKS}({_ID}){_BLANKS}={_BLANKS}(?:(-{_BLANKS})?([0-9]+)|({_ID})){_BLANKS}",
)
_REREAD = "a statement the token grammar must read"


def _unquote(text):
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _string_formula(tok, observables, what):
    """Parse and typecheck a quoted formula; positions map back to the file."""
    try:
        return F.typecheck(F.parse_raw(_unquote(tok.text)), observables)
    except FormulaError as e:
        col = tok.col + e.col if e.col is not None else tok.col
        raise ModelFileError(f"in {what}: {e.message}", tok.line, col) from None


def _int_value(p):
    neg = False
    if p.peek().kind == "minus":
        p.take()
        neg = True
    t = p.take("int", "expected an integer")
    v = int(t.text)
    return -v if neg else v


def _parse_domain(p):
    t = p.peek()
    if p.at_keyword("bool"):
        p.take()
        return F.BoolDomain()
    if p.at_keyword("int"):
        p.take()
        p.take("lbracket", "expected '[' after int")
        lo = _int_value(p)
        p.take("dotdot", "expected '..' between the range bounds")
        hi = _int_value(p)
        p.take("rbracket", "expected ']' closing the range")
        try:
            return F.IntRange(lo, hi)
        except ModelError as e:
            raise ModelFileError(str(e), t.line, t.col) from None
    if p.at_keyword("enum"):
        p.take()
        p.take("lbrace", "expected '{' opening the enum values")
        values = [p.take("ident", "expected an enum value name").text]
        while p.peek().kind == "comma":
            p.take()
            values.append(p.take("ident", "expected an enum value name").text)
        p.take("rbrace", "expected '}' closing the enum values")
        try:
            return F.EnumDomain(tuple(values))
        except ModelError as e:
            raise ModelFileError(str(e), t.line, t.col) from None
    raise p.fail("expected a domain: bool, int[lo..hi] or enum {...}")


def _parse_observables(p):
    p.keyword("observables")
    p.take("lbrace", "expected '{' opening the observables block")
    names, decls = [], []
    while p.peek().kind == "ident":
        names.append(p.take("ident"))
        p.take("colon", "expected ':' after the observable name")
        dom = _parse_domain(p)
        p.take("semi", "expected ';' after the declaration")
        decls.append(F.ObservableDecl(names[-1].text, dom))
    p.take("rbrace", "expected '}' closing the observables block")
    try:
        return F.Observables(decls)
    except ModelError:
        pass
    for n, name_tok in enumerate(names, 1):  # the first declaration that breaks the rules
        try:
            F.Observables(decls[:n])
        except ModelError as e:
            raise ModelFileError(str(e), name_tok.line, name_tok.col) from None


def _lit_text(v):
    if type(v) is bool:
        return "true" if v else "false"
    if type(v) is int:
        return str(v)
    return v


def _parse_value(p, observables, name):
    t = p.peek()
    if t.kind in ("minus", "int"):
        v = _int_value(p)
    elif t.kind == "ident" and t.text in ("true", "false"):
        p.take()
        v = t.text == "true"
    elif t.kind == "ident":
        p.take()
        v = t.text
    else:
        raise p.fail("expected a value")
    dom = observables.domain(name)
    if not F.domain_contains(dom, v):
        raise ModelFileError(
            f"value {_lit_text(v)} of {name!r} outside domain {F.domain_text(dom)}",
            t.line,
            t.col,
        )
    return v


def _valuation(p, observables, id_tok):
    p.take("lbrace", "expected '{' opening the valuation")
    val = {}
    if p.peek().kind != "rbrace":
        while True:
            n_tok = p.take("ident", "expected an observable name")
            if observables.domain(n_tok.text) is None:
                raise ModelFileError(
                    f"undeclared observable {n_tok.text!r}", n_tok.line, n_tok.col
                )
            if n_tok.text in val:
                raise ModelFileError(
                    f"observable {n_tok.text!r} assigned twice", n_tok.line, n_tok.col
                )
            p.take("assign", "expected '=' after the observable name")
            val[n_tok.text] = _parse_value(p, observables, n_tok.text)
            if p.peek().kind == "comma":
                p.take()
                continue
            break
    p.take("rbrace", "expected '}' closing the valuation")
    if len(val) < len(observables.names()):  # every name in val is declared
        missing = [n for n in observables.names() if n not in val]
        raise ModelFileError(
            f"state {id_tok.text!r} leaves {missing[0]!r} unassigned",
            id_tok.line,
            id_tok.col,
        )
    return val


def _assignments(body, items):
    """The valuation in the body of a state in a ``run`` token, built from
    the ``(name, value)`` of each assignment text in :class:`_Items` ``items``.

    A body the token grammar would read otherwise, or one that assigns an
    observable twice, raises :class:`ModelFileError` for the token grammar
    to report; :class:`SBSystem` rejects other errors.
    """
    if not body.strip():  # a run holds no blank but " \t\r\n"
        return {}
    texts = body.split(",")
    val = dict(map(items.__getitem__, texts))
    if len(val) != len(texts):
        raise ModelFileError(_REREAD)
    return val


class _Items(dict):
    """Assignment text -> ``(name, value)``: a text is matched and typed on
    its first lookup."""

    def __missing__(self, text):
        m = _ITEM(text)
        if m is None:
            raise ModelFileError(_REREAD)
        name, minus, digits, word = m.groups()
        if digits:
            value = -int(digits) if minus else int(digits)
        elif word in ("true", "false"):
            value = word == "true"
        else:
            value = word
        self[text] = name, value
        return name, value


def _constraint(p, observables, id_tok):
    p.take("colon", "expected ':' before the constraint string")
    s_tok = p.take("string", "expected the constraint as a quoted string")
    return _string_formula(s_tok, observables, f"constraint of {id_tok.text}")


def _arrow(p, observables, src):
    p.take("arrow", "expected '->'")
    return ()


def _guarded_arrow(p, observables, src):
    p.take("arrowl", "expected '-[' opening the invariant")
    s_tok = p.take("string", "expected the invariant as a quoted string")
    inv = _string_formula(s_tok, observables, f"invariant on {src}")
    p.take("arrowr", "expected ']->' after the invariant")
    return (inv,)


def _block(p, observables, word, state_body, edge_middle):
    """Read a ``behaviour`` or ``structure`` block.

    ``state_body(p, observables, id_tok)`` reads what follows a state id and
    returns that state's entry; ``edge_middle(p, observables, src)`` reads
    what lies between a transition's source and target and returns the
    tuple placed between them.  Returns (entries by state id, initial state
    id, transitions).

    One loop reads the statements: a ``state <id>`` declaration, a
    transition, or a run token of the block, taken in one step by reading
    its statements with one ``findall``.  A behaviour run reads each
    distinct valuation text once; a structure run parses and typechecks
    each formula.  Text in a run that is no statement, a formula error in
    a run, and the errors that would overwrite an entry, mark a second
    initial state, put a state after a transition or, in the structure
    block, name an undeclared state raise :class:`ModelFileError` for the
    token grammar to report; :class:`SBSystem` rejects the rest.
    """
    head = p.keyword(word)
    p.take("lbrace", f"expected '{{' opening the {word} block")
    table = {}
    init = None
    transitions = []
    bodies = {}  # valuation text -> valuation
    items = _Items()  # assignment text -> (name, value)
    run = "run" if word == "behaviour" else "structure_run"

    def declared(tok):
        if tok.text not in table:
            raise ModelFileError(
                f"transition uses undeclared {word} state {tok.text!r}", tok.line, tok.col
            )
        return tok.text

    while (t := p.peek()).kind == "ident" or t.kind == run:
        if t.kind == "run":
            for q, body, marked, src, dst in _PARTS(p.take().text):
                if src:
                    transitions.append((src, dst))
                    continue
                if not q or transitions or q in table or marked and init is not None:
                    raise ModelFileError(_REREAD)
                if body not in bodies:
                    bodies[body] = _assignments(body, items)
                table[q] = bodies[body]
                init = q if marked else init
        elif t.kind == "structure_run":
            try:
                for r, label, marked, src, inv, dst in _STRUCTURE_PARTS(p.take().text):
                    if src:
                        if src not in table or dst not in table:
                            raise ModelFileError(_REREAD)
                        transitions.append((src, F.typecheck(F.parse_raw(inv), observables), dst))
                        continue
                    if not r or transitions or r in table or marked and init is not None:
                        raise ModelFileError(_REREAD)
                    table[r] = F.typecheck(F.parse_raw(label), observables)
                    init = r if marked else init
            except FormulaError:
                raise ModelFileError(_REREAD) from None
        elif t.text == "state" and p.tokens[p.i + 1].kind == "ident":
            if transitions:
                raise ModelFileError(
                    f"{word} states must be declared before transitions", t.line, t.col
                )
            p.take()
            id_tok = p.take()
            if id_tok.text in table:
                raise ModelFileError(
                    f"duplicate {word} state {id_tok.text!r}", id_tok.line, id_tok.col
                )
            entry = state_body(p, observables, id_tok)
            if p.at_keyword("init"):
                p.take()
                if init is not None:
                    raise ModelFileError(
                        f"{word} declares a second initial state", id_tok.line, id_tok.col
                    )
                init = id_tok.text
            p.take("semi", "expected ';' after the state declaration")
            table[id_tok.text] = entry
        else:
            src = declared(p.take())
            middle = edge_middle(p, observables, src)
            dst = declared(p.take("ident", "expected the target state"))
            p.take("semi", "expected ';' after the transition")
            transitions.append((src, *middle, dst))
    p.take("rbrace", f"expected '}}' closing the {word} block")
    if not table:
        raise ModelFileError(f"{word} declares no states", head.line, head.col)
    if init is None:
        raise ModelFileError(f"{word} declares no initial state", head.line, head.col)
    return table, init, transitions


def loads(text):
    """Parse model text into an :class:`SBSystem`.

    Raises :class:`ModelFileError` with a line:col position on any syntax
    or semantic problem in the text.
    """
    source = _lex.Source(text)  # both readings share its line starts
    try:
        return _read(STATEMENTS.parser(source))
    except ModelFileError:
        return _read(LEXER.parser(source))


def _read(p):
    """The system in the tokens of parser ``p``."""
    p.keyword("system")
    name_tok = p.take("string", "expected the system name as a quoted string")
    observables = _parse_observables(p)
    table, q_init, q_edges = _block(p, observables, "behaviour", _valuation, _arrow)
    labels, r_init, r_edges = _block(p, observables, "structure", _constraint, _guarded_arrow)
    if p.peek().kind != _lex.EOF:
        raise p.fail("unexpected trailing input")
    try:
        return SBSystem(
            name=_unquote(name_tok.text),
            observables=observables,
            behaviour=BehaviourMachine(tuple(table), q_init, q_edges),
            structure=StructureMachine(tuple(labels), r_init, labels, r_edges),
            observation=ObservationMap(table),
        )
    except ModelError as e:
        raise ModelFileError(str(e)) from None


def load(path):
    """Read and parse a model file in UTF-8.

    Newlines are read as in text mode: ``\\r\\n`` and ``\\r`` each end a
    line.  A leading byte-order mark is skipped, and positions are counted
    after it.  A byte that is no UTF-8 is reported at its ``line:col``.
    """
    try:
        data = pathlib.Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    except OSError as e:
        raise ModelFileError(f"cannot read {path}: {e.strerror or e}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = _newlines(data[: e.start].decode("utf-8"))
        line, col = _lex.Source(head).position(len(head))
        raise ModelFileError(f"byte 0x{data[e.start]:02x} is not UTF-8", line, col) from None
    return loads(_newlines(text))


def _newlines(text):
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _quote(text):
    if "\n" in text or "\r" in text:  # load reads a lone "\r" as a line end too
        raise ModelError(f"cannot save {text!r}: a .sbs string cannot hold a newline")
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def save(sys):
    """Render a system in the canonical text form.

    Raises :class:`ModelError` for a name that :data:`LEXER` would not read
    back as one identifier.
    """
    obs = sys.observables
    for name in (*obs.names(), *obs._enum_owner, *sys.behaviour.states, *sys.structure.states):
        if not _NAME(name):
            raise ModelError(f"cannot save {name!r}: a .sbs name must match {_ID}")
    out = [f"system {_quote(sys.name)}", ""]
    out.append("observables {")
    for d in obs.decls:
        out.append(f"  {d.name}: {F.domain_text(d.domain)};")
    out.append("}")
    out.append("")
    out.append("behaviour {")
    for q in sys.behaviour.states:
        v = sys.observation.table[q]
        body = ", ".join(f"{n} = {_lit_text(v[n])}" for n in obs.names())
        suffix = " init" if q == sys.behaviour.init else ""
        out.append(f"  state {q} {{{body}}}{suffix};")
    for q in sys.behaviour.states:
        for dst in sys.behaviour.successors(q):
            out.append(f"  {q} -> {dst};")
    out.append("}")
    out.append("")
    out.append("structure {")
    for r in sys.structure.states:
        suffix = " init" if r == sys.structure.init else ""
        out.append(f"  state {r}: {_quote(F.unparse(sys.structure.label(r)))}{suffix};")
    for r in sys.structure.states:
        for text, dst in sys.structure.out_texts(r):
            out.append(f"  {r} -[{_quote(text)}]-> {dst};")
    out.append("}")
    return "\n".join(out) + "\n"


def bundled_model_path(name):
    """Filesystem path of a model shipped with the package (.sbs implied)."""
    base = pathlib.Path(__file__).resolve().parent / "models"
    path = base / f"{name}.sbs"
    if not path.is_file():
        known = ", ".join(sorted(q.stem for q in base.glob("*.sbs")))
        raise ModelError(f"no bundled model {name!r} (have: {known})")
    return path


def bundled_model(name):
    """Parsed bundled model."""
    return load(bundled_model_path(name))
