"""Line-oriented scenario files: declarations plus a command list.

Format (version 1): one directive per line, `#` comments, blank lines
ignored.  Directives:

    format_version 1
    prime <p>
    precision <m>
    depth <n>
    budget max_carrier <int>
    budget max_enum <int>
    budget max_cap <int>
    ring <name> field <Fp|F4|F8|F9|F25|Zpm> [vars <v:depth:cap>[,...]]
    frame <name> kind witt ring <R> length <n>
    frame <name> kind lift [precision <m>]
    frame <name> kind quotient ring <S> length <n> ideal <mono>[,<mono>]
    frame <name> kind pd vars <v>[,<v>] gens <mono>[,...] cap <r> [precision <m>]
    hom <name> from <F> to <G> kind <identity|witt-to-quotient>
    window <name> frame <F> d <d> t <t> psi <int>[,<int>...]
    command validate <frame>
    command classify <frame> rank <r>
    command base-change <window> hom <h>
    command hom <w1> <w2> [mode <window|phi_module>]
    command lift <window> hom <h>
    command solve-connection <frame> <window>
    command torsion-probe <frame>
    command verify <tag> [key=value ...]

Monomials use `*` and `^` with optional fractional exponents: x, x^2,
x^2*y, Y^1/2.  A ring, frame or hom directive with a missing or unknown
key is a parse error.  All three budgets are mandatory and at least 1;
enumerating operations refuse to exceed them.  Budget defaults can be overridden through the
CRYSTAFRAME_MAX_CARRIER / _MAX_ENUM / _MAX_CAP environment variables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

FORMAT_VERSION = 1

ENV_BUDGETS = {
    "max_carrier": "CRYSTAFRAME_MAX_CARRIER",
    "max_enum": "CRYSTAFRAME_MAX_ENUM",
    "max_cap": "CRYSTAFRAME_MAX_CAP",
}


class ScenarioParseError(ValueError):
    def __init__(self, msg, line_no=None):
        loc = f" (line {line_no})" if line_no else ""
        super().__init__(f"{msg}{loc}")
        self.line_no = line_no


class ScenarioSemanticError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


@dataclass
class Scenario:
    prime: int = 0
    precision: int = 0
    depth: int = 0
    budgets: dict = field(default_factory=dict)
    rings: dict = field(default_factory=dict)     # name -> spec dict
    frames: dict = field(default_factory=dict)    # name -> spec dict
    homs: dict = field(default_factory=dict)
    windows: dict = field(default_factory=dict)
    commands: list = field(default_factory=list)
    source_text: str = ""


def parse_monomial(token: str, line_no=None):
    """x^2*y -> [(var, Fraction exponent), ...]."""
    out = []
    for factor in token.split("*"):
        factor = factor.strip()
        if not factor:
            raise ScenarioParseError(f"empty factor in monomial {token!r}", line_no)
        if "^" in factor:
            var, exp = factor.split("^", 1)
            num, slash, den = exp.partition("/")
            try:
                e = Fraction(int(num), int(den) if slash else 1)
            except (ValueError, ZeroDivisionError):
                raise ScenarioParseError(f"bad exponent {exp!r} in monomial {token!r}", line_no)
        else:
            var, e = factor, Fraction(1)
        if not var.isidentifier():
            raise ScenarioParseError(f"bad variable name {var!r}", line_no)
        out.append((var, e))
    return out


# the keys each frame kind takes, (required, optional); the integer-valued
# ones are converted at parse time
_FRAME_KEYS = {
    "witt": (("ring", "length"), ()),
    "lift": ((), ("precision",)),
    "quotient": (("ring", "length", "ideal"), ()),
    "pd": (("vars", "gens", "cap"), ("precision",)),
}
_FRAME_INT_KEYS = ("length", "precision", "cap")


def _frame_keyvals(tokens, line_no):
    kv = _keyvals(tokens, line_no)
    if "kind" not in kv:
        raise ScenarioParseError("frame needs a kind", line_no)
    if kv["kind"] in _FRAME_KEYS:
        required, optional = _FRAME_KEYS[kv["kind"]]
        missing = [k for k in required if k not in kv]
        unknown = sorted(set(kv) - {"kind", *required, *optional})
        if missing or unknown:
            raise ScenarioParseError(
                f"frame kind {kv['kind']} takes {', '.join(required + optional)}; "
                f"missing {missing}, unknown {unknown}",
                line_no,
            )
    for key in _FRAME_INT_KEYS:
        if key in kv:
            kv[key] = int(kv[key])
    return kv


def _keyvals(tokens, line_no):
    if len(tokens) % 2:
        raise ScenarioParseError("expected key value pairs", line_no)
    return {tokens[i]: tokens[i + 1] for i in range(0, len(tokens), 2)}


def parse_scenario(text: str) -> Scenario:
    sc = Scenario(source_text=text)
    seen_version = False
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        try:
            if head == "format_version":
                if int(tokens[1]) != FORMAT_VERSION:
                    raise ScenarioParseError(f"unsupported format_version {tokens[1]}", line_no)
                seen_version = True
            elif head == "prime":
                sc.prime = int(tokens[1])
            elif head == "precision":
                sc.precision = int(tokens[1])
            elif head == "depth":
                sc.depth = int(tokens[1])
            elif head == "budget":
                if tokens[1] not in ENV_BUDGETS:
                    raise ScenarioParseError(f"unknown budget {tokens[1]!r}", line_no)
                sc.budgets[tokens[1]] = int(tokens[2])
            elif head == "ring":
                name = tokens[1]
                kv = _keyvals(tokens[2:], line_no)
                if not set(kv) <= {"field", "vars", "total_cap"}:
                    raise ScenarioParseError("ring takes field, vars and total_cap", line_no)
                spec = {"field": kv.get("field", "Fp"), "vars": []}
                if "vars" in kv:
                    for piece in kv["vars"].split(","):
                        parts = piece.split(":")
                        vname = parts[0]
                        if not vname.isidentifier() or len(parts) > 3:
                            raise ScenarioParseError(f"bad variable {piece!r}", line_no)
                        depth = int(parts[1]) if len(parts) > 1 else 0
                        cap = Fraction(parts[2]) if len(parts) > 2 else None
                        spec["vars"].append((vname, depth, cap))
                if "total_cap" in kv:
                    spec["total_cap"] = Fraction(kv["total_cap"])
                sc.rings[name] = spec
            elif head == "frame":
                sc.frames[tokens[1]] = _frame_keyvals(tokens[2:], line_no)
            elif head == "hom":
                kv = _keyvals(tokens[2:], line_no)
                if sorted(kv) != ["from", "kind", "to"]:
                    raise ScenarioParseError("hom takes from, to and kind", line_no)
                sc.homs[tokens[1]] = kv
            elif head == "window":
                name = tokens[1]
                kv = _keyvals(tokens[2:], line_no)
                sc.windows[name] = {
                    "frame": kv["frame"],
                    "d": int(kv["d"]),
                    "t": int(kv["t"]),
                    "psi": [int(x) for x in kv["psi"].split(",")],
                }
            elif head == "command":
                sc.commands.append(tokens[1:])
            else:
                raise ScenarioParseError(f"unknown directive {head!r}", line_no)
        except ScenarioParseError:
            raise
        except (IndexError, ValueError, KeyError, ZeroDivisionError) as exc:
            raise ScenarioParseError(f"malformed {head!r} directive: {exc}", line_no)
    if not seen_version:
        raise ScenarioParseError("missing format_version")
    return sc


def apply_env_budget_overrides(sc: Scenario) -> None:
    for key, env in ENV_BUDGETS.items():
        if env in os.environ:
            sc.budgets[key] = int(os.environ[env])


def validate_scenario(sc: Scenario):
    """Resolve names and build the live objects; semantic errors raise.

    A frame, hom or window that its constructor rejects is a semantic error;
    an enumeration budget overrun while building one is a budget error.
    """
    from .frames import BudgetError, FrameError
    from .pdenv import PDError
    from .windows import WindowError

    try:
        return _build_objects(sc)
    except BudgetError as exc:
        raise BudgetExceeded(str(exc)) from exc
    except (WindowError, FrameError, PDError) as exc:
        raise ScenarioSemanticError(str(exc)) from exc


def _build_objects(sc: Scenario):
    from .frames import (
        AdmissibleSequence,
        FrameHom,
        admissible_quotient_frame,
        lift_frame,
        witt_frame,
    )
    from .monomial import MonomialAlgebra
    from .pdenv import PDPresentation, build_pd_envelope, pd_frame
    from .residues import GaloisField, Residues, is_prime
    from .windows import window_from_psi

    if sc.prime < 2:
        raise ScenarioSemanticError("prime is required")
    if not is_prime(sc.prime):
        raise ScenarioSemanticError(f"prime {sc.prime} is not prime")
    if sc.precision < 1:
        raise ScenarioSemanticError("precision is required")
    for key in ENV_BUDGETS:
        if key not in sc.budgets:
            raise ScenarioSemanticError(f"mandatory budget {key!r} missing")
        if sc.budgets[key] < 1:
            raise ScenarioSemanticError(f"budget {key!r} must be at least 1")
    max_cap = sc.budgets["max_cap"]

    rings = {}
    for name, spec in sc.rings.items():
        fld = spec["field"]
        if fld == "Fp":
            cf = Residues(sc.prime, 1)
        elif fld == "Zpm":
            cf = Residues(sc.prime, sc.precision)
        elif fld.startswith("F") and fld[1:].isdigit():
            q = int(fld[1:])
            k = 0
            qq = q
            while qq % sc.prime == 0 and qq > 1:
                qq //= sc.prime
                k += 1
            if qq != 1 or k < 1:
                raise ScenarioSemanticError(f"field {fld} is not a power of the prime {sc.prime}")
            cf = Residues(sc.prime, 1) if k == 1 else GaloisField(sc.prime, k)
        else:
            raise ScenarioSemanticError(f"unknown field {fld!r}")
        for (v, depth, cap) in spec["vars"]:
            if cap is not None and cap > max_cap:
                raise BudgetExceeded(f"variable cap {cap} exceeds max_cap")
        try:
            rings[name] = MonomialAlgebra(cf, spec["vars"], total_cap=spec.get("total_cap"))
        except ValueError as exc:
            raise ScenarioSemanticError(f"ring {name!r}: {exc}") from exc

    frames = {}
    for name, kv in sc.frames.items():
        kind = kv["kind"]
        if kind == "witt":
            R = _lookup(rings, kv["ring"], "ring")
            # gated before it is built: the universal polynomials grow with the length
            if _power_exceeds(R.size(), kv["length"], sc.budgets["max_carrier"]):
                raise BudgetExceeded(f"frame {name!r} carrier exceeds max_carrier")
            fr = witt_frame(R, kv["length"])
        elif kind == "lift":
            m = kv.get("precision", sc.precision)
            if m < 2:
                raise ScenarioSemanticError(f"frame {name!r}: lift precision must be at least 2")
            if _power_exceeds(sc.prime, m, sc.budgets["max_carrier"]):
                raise BudgetExceeded(f"frame {name!r} carrier exceeds max_carrier")
            fr = lift_frame(Residues(sc.prime, m))
        elif kind == "quotient":
            S = _lookup(rings, kv["ring"], "ring")
            n = kv["length"]
            if n < 2:
                raise ScenarioSemanticError(f"frame {name!r}: quotient length must be at least 2")
            # A(K_*) contains Z/p^n for a proper K_*: a lower bound, checked first
            if _power_exceeds(sc.prime, n, sc.budgets["max_carrier"]):
                raise BudgetExceeded(f"frame {name!r} carrier exceeds max_carrier")
            gens = []
            for tok in kv["ideal"].split(","):
                mono = parse_monomial(tok)
                elt = S.one
                for v, e in mono:
                    if v not in S.names:
                        raise ScenarioSemanticError(f"ideal {tok!r}: {v!r} is not a variable of the ring")
                    elt = S.mul(elt, S.gen(v, power=e))
                gens.append(elt)
            seq = AdmissibleSequence.minimal(S, gens, n)
            fr = admissible_quotient_frame(seq, n)
        elif kind == "pd":
            variables = tuple(kv["vars"].split(","))
            cap = kv["cap"]
            if cap > max_cap:
                raise BudgetExceeded(f"cap {cap} exceeds max_cap")
            gen_vecs = []
            for tok in kv["gens"].split(","):
                mono = parse_monomial(tok)
                vec = [0] * len(variables)
                for v, e in mono:
                    if e.denominator != 1:
                        raise ScenarioSemanticError("pd generators need integer exponents")
                    if v not in variables:
                        raise ScenarioSemanticError(f"pd generator {tok!r}: {v!r} is not in vars")
                    vec[variables.index(v)] += int(e)
                gen_vecs.append(tuple(vec))
            m = kv.get("precision", sc.precision)
            if m < 1:
                raise ScenarioSemanticError(f"frame {name!r}: pd precision must be at least 1")
            env = build_pd_envelope(PDPresentation(sc.prime, m, variables, tuple(gen_vecs), cap))
            fr = pd_frame(env)
        else:
            raise ScenarioSemanticError(f"unknown frame kind {kind!r}")
        # max_carrier gates the kinds whose operations enumerate the carrier;
        # pd frames are solved through coordinates and never enumerated
        if kind in ("witt", "lift", "quotient") and hasattr(fr.A, "size"):
            if fr.A.size() > sc.budgets["max_carrier"]:
                raise BudgetExceeded(f"frame {name!r} carrier exceeds max_carrier")
        frames[name] = fr

    homs = {}
    for name, kv in sc.homs.items():
        src = _lookup(frames, kv["from"], "frame")
        tgt = _lookup(frames, kv["to"], "frame")
        kind = kv["kind"]
        if kind == "identity":
            if src is not tgt:
                raise ScenarioSemanticError("identity hom needs equal frames")
            hom = FrameHom(src, tgt, fn=lambda x: x, name=name)
            hom.section = lambda x: x
        elif kind == "witt-to-quotient":
            if src.kind != "witt" or tgt.kind != "quotient":
                raise ScenarioSemanticError("witt-to-quotient needs a witt source and quotient target")
            hom = FrameHom(
                src,
                tgt,
                fn=tgt.A.reduce,
                cod_fn=tgt.sigma1_codomain.reduce,
                name=name,
            )
            hom.section = lambda x: x  # canonical representatives
        else:
            raise ScenarioSemanticError(f"unknown hom kind {kind!r}")
        homs[name] = hom

    windows = {}
    for name, spec in sc.windows.items():
        fr = _lookup(frames, spec["frame"], "frame")
        r = spec["d"] + spec["t"]
        entries = spec["psi"]
        if len(entries) != r * r:
            raise ScenarioSemanticError(f"window {name!r}: psi needs {r * r} entries")
        rows = [
            [fr.A.embed_int(entries[i * r + j]) for j in range(r)] for i in range(r)
        ]
        windows[name] = window_from_psi(fr, spec["d"], spec["t"], rows)

    for cmd in sc.commands:
        _validate_command(cmd, frames, homs, windows)
    return {"rings": rings, "frames": frames, "homs": homs, "windows": windows}


def _power_exceeds(q: int, n: int, bound: int) -> bool:
    """q^n > bound for q >= 2, without forming q^n for a large n."""
    size = 1
    for _ in range(n):
        size *= q
        if size > bound:
            return True
    return False


def _lookup(table, name, kind):
    if name not in table:
        raise ScenarioSemanticError(f"unresolved {kind} name {name!r}")
    return table[name]


# the accepted form of each command, one per token count: `<...>` is an
# argument, any other token must appear as written; verify also takes any
# number of key=value parameters after its tag
_COMMAND_FORMS = {
    "validate": ["validate <frame>"],
    "classify": ["classify <frame> rank <r>"],
    "base-change": ["base-change <window> hom <h>"],
    "hom": ["hom <w1> <w2>", "hom <w1> <w2> mode <window|phi_module>"],
    "lift": ["lift <window> hom <h>"],
    "solve-connection": ["solve-connection <frame> <window>"],
    "torsion-probe": ["torsion-probe <frame>"],
    "verify": ["verify <tag>"],
}


def _check_form(cmd):
    forms = _COMMAND_FORMS.get(cmd[0])
    if forms is None:
        raise ScenarioSemanticError(f"unknown command {cmd[0]!r}")
    head = cmd[:2] if cmd[0] == "verify" else cmd
    for form in forms:
        words = form.split()
        if len(words) == len(head) and all(
            w == c or w.startswith("<") for w, c in zip(words, head)
        ):
            return
    expected = " or ".join(map(repr, forms))
    raise ScenarioSemanticError(f"{' '.join(cmd)!r} does not match {expected}")


def _validate_command(cmd, frames, homs, windows):
    from .verify import TAGS, battery_parameters

    if not cmd:
        raise ScenarioSemanticError("empty command")
    _check_form(cmd)
    op = cmd[0]
    if op == "validate":
        _lookup(frames, cmd[1], "frame")
    elif op == "classify":
        _lookup(frames, cmd[1], "frame")
        try:
            rank = int(cmd[3])
        except ValueError:
            raise ScenarioParseError(f"classify rank must be an integer, got {cmd[3]!r}")
        if not 0 <= rank <= 2:
            raise ScenarioSemanticError(f"classify rank must be 0, 1 or 2, got {rank}")
    elif op in ("base-change", "lift"):
        _lookup(windows, cmd[1], "window")
        _lookup(homs, cmd[3], "hom")
    elif op == "hom":
        _lookup(windows, cmd[1], "window")
        _lookup(windows, cmd[2], "window")
        if len(cmd) == 5 and cmd[4] not in ("window", "phi_module"):
            raise ScenarioSemanticError(f"unknown hom mode {cmd[4]!r}")
    elif op == "solve-connection":
        fr = _lookup(frames, cmd[1], "frame")
        if fr.kind != "pd":
            raise ScenarioSemanticError("solve-connection needs a pd frame")
        if fr.env.cap < 4:
            # each produced connection gets a curvature certificate, two cap levels down
            raise ScenarioSemanticError("solve-connection needs a pd frame of cap at least 4")
        _lookup(windows, cmd[2], "window")
    elif op == "torsion-probe":
        fr = _lookup(frames, cmd[1], "frame")
        if fr.kind != "pd":
            raise ScenarioSemanticError("torsion-probe needs a pd frame")
    elif op == "verify":
        if cmd[1] not in TAGS:
            raise ScenarioSemanticError(f"unknown verify tag {cmd[1]!r}")
        defaults = battery_parameters(cmd[1])
        for tok in cmd[2:]:
            if "=" not in tok:
                raise ScenarioSemanticError(f"verify parameters look like key=value, got {tok!r}")
            key, val = tok.split("=", 1)
            if key not in defaults:
                raise ScenarioSemanticError(
                    f"verify {cmd[1]} takes {', '.join(defaults)}; got {tok!r}"
                )
            value = parse_verify_value(val)
            if not _fits_default(value, defaults[key]):
                raise ScenarioSemanticError(
                    f"verify {cmd[1]} {key} takes values like {defaults[key]!r}; got {val!r}"
                )
            rule = VERIFY_RANGES.get((cmd[1], key), VERIFY_RANGES.get(key))
            if rule:
                what, ok = rule
                if not all(ok(x) for x in (value if isinstance(value, tuple) else (value,))):
                    raise ScenarioSemanticError(f"verify {cmd[1]} {key} must be {what}; got {val!r}")


def parse_verify_value(val: str):
    """A verify value: an int, a comma-separated tuple, else the string."""
    if "," in val:
        return tuple(parse_verify_value(v) for v in val.split(","))
    try:
        return int(val)
    except ValueError:
        return val


def _is_prime(n: int) -> bool:
    from .residues import is_prime

    return is_prime(n)


# The values each verify keyword's ints must take, by keyword or by (tag,
# keyword): outside them the batteries raise (a non-prime, precision 0, a
# cap below 2) or report a FAIL for an input they cannot take (rank 5, a
# lift frame of precision 1).
VERIFY_RANGES = {
    ("win-phi-mod", "precision"): ("at least 2", lambda v: v >= 2),
    "p": ("a prime", _is_prime),
    "primes": ("primes", _is_prime),
    "p_list": ("primes", _is_prime),
    "precision": ("at least 1", lambda v: v >= 1),
    "nmax": ("at least 1", lambda v: v >= 1),
    "cap": ("at least 2", lambda v: v >= 2),
    "rank": ("0, 1 or 2", lambda v: 0 <= v <= 2),
    "chunk": ("at least 1", lambda v: v >= 1),
    "min_instances": ("at least 0", lambda v: v >= 0),
}


def _fits_default(value, default) -> bool:
    """An int default takes an int; a tuple default an int or a tuple of ints."""
    if isinstance(default, tuple):
        value = value if isinstance(value, tuple) else (value,)
        return all(isinstance(x, int) for x in value)
    return isinstance(value, type(default))
