"""Command line front end.

One subcommand per operation. Output is either fixed-order text or
canonical JSON (sorted keys, compact separators), so identical input
and flags give byte-identical bytes across runs. Exit codes: 0 the
computation succeeded or the statement holds, 1 the statement fails,
2 the input or flags are invalid, 3 the verdict is inconclusive (for
sampling commands: no certified parameter system in the trial budget).
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import run_all
from .complexes import (
    ComplexError,
    RelativeComplex,
    builtin_complex,
    complex_hash,
    f_h_vectors,
    link_depth,
    reisner_link_table,
    relative_cohomology_dims,
    relative_from_json,
)
from .duality import DualityError, _ClosedManifold, cone_lemma_check, poincare_duality_report
from .facering import (
    FaceRingError,
    expected_lsop_length,
    hilbert_series_coeffs,
    is_lsop,
    trials_until_certified,
)
from .koszul import KoszulError, is_algebraically_cm
from .linalg import DEFAULT_PRIME, LinAlgError, PrimeField
from .partition import (
    PartitionError,
    SubdivisionStructure,
    _window,
    barycentric_subdivision_structure,
    partition_homology_dims,
    subdivision_partition_check,
)
from .verdicts import (
    LEFSCHETZ_MODES,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    dehn_sommerville_check,
    kuhnel_report,
    lefschetz_report,
    partition_of_unity_report,
    schenzel_report,
)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    VERDICT_HOLDS: EXIT_OK,
    VERDICT_FAILS: EXIT_FAILS,
    VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class InputError(ValueError):
    pass


class _NoTheta(Exception):
    """No certified parameter system for the complex in args[0]; ``run`` exits 3."""


class RunConfig:
    """Flags of one invocation, already validated."""

    __slots__ = ("command", "input", "prime", "seed", "trials", "max_degree",
                 "format", "mode")

    def __init__(self, command: str, input: str | None = None,
                 prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = 3,
                 max_degree: int | None = None, format: str = "text",
                 mode: str = "strong"):
        self.command = command
        self.input = input
        self.prime = prime
        self.seed = seed
        self.trials = trials
        self.max_degree = max_degree
        self.format = format
        self.mode = mode


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return data


def parse_complex_file(path: str) -> RelativeComplex:
    """Read and validate one relative complex from a JSON file."""
    data = _load_json(path)
    try:
        return relative_from_json(data)
    except (ComplexError, KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: {e}") from e


def _resolve_complex(spec: str | None) -> RelativeComplex:
    if not spec:
        raise InputError("this command needs --input")
    if spec.startswith("builtin:"):
        try:
            return builtin_complex(spec[len("builtin:"):])
        except ComplexError as e:
            raise InputError(str(e)) from e
    return parse_complex_file(spec)


def _resolve_structure(spec: str | None) -> SubdivisionStructure:
    if not spec:
        raise InputError("this command needs --input")
    if spec.startswith("builtin:"):
        psi = _resolve_complex(spec)
        if not psi.is_absolute:
            raise InputError("subdivision structures need an absolute complex")
        try:
            return barycentric_subdivision_structure(psi.delta)
        except PartitionError as e:
            raise InputError(str(e)) from e
    data = _load_json(spec)
    if "sigma" not in data or "delta" not in data:
        raise InputError(f"{spec}: a subdivision structure needs delta and sigma")
    try:
        return SubdivisionStructure.from_json(data)
    except (PartitionError, ComplexError, KeyError, TypeError, ValueError) as e:
        raise InputError(f"{spec}: {e}") from e


def _require_absolute(psi: RelativeComplex, command: str) -> RelativeComplex:
    if not psi.is_absolute:
        raise InputError(f"{command} is a statement about an absolute complex; "
                         "the input has a nonempty deleted part")
    return psi


def _base_payload(cfg: RunConfig, psi=None) -> dict:
    payload = {"command": cfg.command, "prime": cfg.prime, "seed": cfg.seed}
    if psi is not None:
        payload["input_hash"] = complex_hash(psi)
    return payload


def _no_theta(cfg: RunConfig, psi) -> tuple[int, dict, list[str]]:
    payload = _base_payload(cfg, psi)
    payload["note"] = "no certified linear system of parameters in the trial budget"
    return EXIT_INCONCLUSIVE, payload, [payload["note"]]


def _certified_lsop(cfg: RunConfig, psi, field: PrimeField) -> tuple:
    """(seed used, Theta) of the first certified trial; raises _NoTheta if there is none."""
    seeds, theta = trials_until_certified(psi, cfg.seed, field, cfg.trials)
    if theta is None:
        raise _NoTheta(psi)
    return seeds[-1], theta


def _entry_lines(rep, render) -> list[str]:
    # inconclusive reports carry no tables, only diagnostics
    if not rep.tables:
        return list(rep.diagnostics)
    return [render(e) for e in rep.tables[0]["entries"]]


def _report_result(cfg: RunConfig, rep, extra_lines=()) -> tuple[int, dict, list[str]]:
    payload = dict(_base_payload(cfg), **rep.to_json())
    lines = [f"theorem: {rep.theorem}",
             f"verdict: {rep.verdict}",
             f"prime: {rep.prime}",
             f"seeds: {rep.seeds}",
             f"input: {rep.input_hash}"]
    lines.extend(extra_lines)
    return _VERDICT_EXIT[rep.verdict], payload, lines


def _cmd_fvec(cfg: RunConfig, field: PrimeField):
    psi = _resolve_complex(cfg.input)
    try:
        fv = f_h_vectors(psi)
    except ComplexError as e:
        raise InputError(str(e)) from e
    payload = _base_payload(cfg, psi)
    payload["f"] = list(fv.f)
    payload["h"] = list(fv.h)
    lines = ["f: " + " ".join(str(x) for x in fv.f),
             "h: " + " ".join(str(x) for x in fv.h)]
    return EXIT_OK, payload, lines


def _cmd_cohomology(cfg: RunConfig, field: PrimeField):
    psi = _resolve_complex(cfg.input)
    dims = relative_cohomology_dims(psi, field)
    payload = _base_payload(cfg, psi)
    payload["cohomology"] = {str(i): dims[i] for i in sorted(dims)}
    lines = [f"H^{i}: {dims[i]}" for i in sorted(dims)]
    return EXIT_OK, payload, lines or ["no cohomology in the window"]


def _cmd_hilbert(cfg: RunConfig, field: PrimeField):
    psi = _resolve_complex(cfg.input)
    window = _window(psi, cfg.max_degree)
    coeffs = hilbert_series_coeffs(psi, window)
    payload = _base_payload(cfg, psi)
    payload["coeffs"] = coeffs
    return EXIT_OK, payload, [f"{j}: {c}" for j, c in enumerate(coeffs)]


def _cmd_lsop(cfg: RunConfig, field: PrimeField):
    psi = _resolve_complex(cfg.input)
    used, theta = _certified_lsop(cfg, psi, field)
    cert = is_lsop(psi, theta, field)
    payload = _base_payload(cfg, psi)
    payload.update({
        "theta_seed": used,
        "length": len(theta),
        "forms": [list(f) for f in theta.forms],
        "vanishing_degree": cert["vanishing_degree"],
        "quotient_dims": cert["dims"],
    })
    lines = [f"length: {len(theta)}", f"theta_seed: {used}",
             f"vanishing_degree: {cert['vanishing_degree']}"]
    lines += ["form: " + " ".join(str(c) for c in f) for f in theta.forms]
    return EXIT_OK, payload, lines


def _cmd_depth(cfg: RunConfig, field: PrimeField):
    psi = _resolve_complex(cfg.input)
    if psi.is_void:
        raise InputError("depth is undefined for the zero module")
    dep = link_depth(psi, reisner_link_table(psi, field))
    expected = expected_lsop_length(psi)
    payload = _base_payload(cfg, psi)
    payload.update({"depth": dep, "expected_depth": expected})
    return EXIT_OK, payload, [f"depth: {dep}", f"expected: {expected}"]


def _cmd_cm(cfg: RunConfig, field: PrimeField):
    psi = _resolve_complex(cfg.input)
    res = is_algebraically_cm(psi, field, seed=cfg.seed, trials=cfg.trials)
    payload = _base_payload(cfg, psi)
    payload.update({"cm": res["cm"], "depth": res["depth"],
                    "expected_depth": res["expected_depth"],
                    "inconclusive": res["inconclusive"],
                    "trials": res["trials"]})
    if res["inconclusive"]:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK if res["cm"] else EXIT_FAILS
    lines = [f"cm: {'yes' if res['cm'] else 'no'}",
             f"depth: {res['depth']}",
             f"expected: {res['expected_depth']}"]
    if res["inconclusive"]:
        lines.append("inconclusive: no certified parameter system")
    return code, payload, lines


def _cmd_partition_homology(cfg: RunConfig, field: PrimeField):
    psi = _resolve_complex(cfg.input)
    table = partition_homology_dims(psi, field, max_degree=cfg.max_degree)
    nonzero = {k: v for k, v in table.items() if v}
    payload = _base_payload(cfg, psi)
    payload["table"] = {f"{i},{j}": v for (i, j), v in sorted(nonzero.items())}
    lines = [f"i={i} j={j}: {v}" for (i, j), v in sorted(nonzero.items())]
    return EXIT_OK, payload, lines or ["all partition homology vanishes in the window"]


def _cmd_pou(cfg: RunConfig, field: PrimeField):
    psi = _resolve_complex(cfg.input)
    _, theta = _certified_lsop(cfg, psi, field)
    rep = partition_of_unity_report(psi, theta, field, max_degree=cfg.max_degree)
    lines = _entry_lines(
        rep, lambda e: f"i={e['i']} j={e['j']} left={e['left']} right={e['right']}")
    return _report_result(cfg, rep, lines)


def _cmd_schenzel(cfg: RunConfig, field: PrimeField):
    psi = _resolve_complex(cfg.input)
    _, theta = _certified_lsop(cfg, psi, field)
    rep = schenzel_report(psi, theta, field)
    lines = _entry_lines(
        rep, lambda e: f"j={e['j']} h={e['h']} left={e['left']} right={e['right']}")
    return _report_result(cfg, rep, lines)


def _cmd_pd(cfg: RunConfig, field: PrimeField):
    psi = _require_absolute(_resolve_complex(cfg.input), "pd")
    manifold = _ClosedManifold(psi, field)
    used, theta = _certified_lsop(cfg, psi, field)
    rep = poincare_duality_report(manifold.B(theta))
    payload = _base_payload(cfg, psi)
    payload.update({
        "theta_seed": used,
        "pd": rep["pd"],
        "fundamental_degree": rep["fundamental_degree"],
        "b_dims": rep["b_dims"],
        "pairings": {str(i): r for i, r in sorted(rep["pairings"].items())},
        "socle": {str(i): v for i, v in sorted(rep["socle"].items())},
    })
    lines = [f"pd: {'yes' if rep['pd'] else 'no'}",
             f"b_dims: {' '.join(str(x) for x in rep['b_dims'])}",
             f"fundamental_degree: {rep['fundamental_degree']}"]
    lines += [f"pairing i={i}: rank {r['rank']} of {r['dim_left']}x{r['dim_right']}"
              for i, r in sorted(rep["pairings"].items())]
    return (EXIT_OK if rep["pd"] else EXIT_FAILS), payload, lines


def _cmd_dehn_sommerville(cfg: RunConfig, field: PrimeField):
    psi = _require_absolute(_resolve_complex(cfg.input), "dehn-sommerville")
    rep = dehn_sommerville_check(psi, field, seed=cfg.seed, trials=cfg.trials)
    lines = [f"tables: {json.dumps(rep.tables, sort_keys=True)}"]
    return _report_result(cfg, rep, lines)


def _cmd_lefschetz(cfg: RunConfig, field: PrimeField):
    if cfg.mode == "subdivision":
        target = _resolve_structure(cfg.input)
    else:
        target = _resolve_complex(cfg.input)
    rep = lefschetz_report(target, cfg.mode, field, seed=cfg.seed, trials=cfg.trials)
    lines = [f"mode: {cfg.mode}",
             f"tables: {json.dumps(rep.tables, sort_keys=True)}"]
    return _report_result(cfg, rep, lines)


def _cmd_kuhnel(cfg: RunConfig, field: PrimeField):
    psi = _require_absolute(_resolve_complex(cfg.input), "kuhnel")
    rep = kuhnel_report(psi.delta, field, seed=cfg.seed, trials=cfg.trials)
    lines = _entry_lines(
        rep, lambda e: f"j={e['j']} lhs={e['lhs']} rhs={e['rhs']} dim_A={e['dim_A']}")
    return _report_result(cfg, rep, lines)


def _cmd_subdiv_check(cfg: RunConfig, field: PrimeField):
    structure = _resolve_structure(cfg.input)
    psi = RelativeComplex(structure.delta)
    used, theta = _certified_lsop(cfg, psi, field)
    res = subdivision_partition_check(structure, theta, field)
    payload = _base_payload(cfg, psi)
    payload.update({
        "theta_seed": used,
        "pass": res["pass"],
        "dim": res["dim"],
        "kernel_dims": {str(j): v for j, v in sorted(res["kernel_dims"].items())},
        "boundary_induced_ok": res["boundary_induced_ok"],
        "failing_cells": res["failing_cells"],
    })
    lines = [f"pass: {'yes' if res['pass'] else 'no'}",
             "kernel_dims: " + " ".join(f"{j}:{v}" for j, v
                                        in sorted(res["kernel_dims"].items()))]
    return (EXIT_OK if res["pass"] else EXIT_FAILS), payload, lines


def _cmd_cone_lemma(cfg: RunConfig, field: PrimeField):
    psi = _require_absolute(_resolve_complex(cfg.input), "cone-lemma")
    if psi.delta.dim is None:
        raise InputError("cone-lemma needs a nonvoid complex")
    used, theta = _certified_lsop(cfg, psi, field)
    results = []
    for vmask in psi.delta.vertex_masks():
        v = psi.delta.labels_of(vmask)[0]
        results.append(cone_lemma_check(psi.delta, v, theta, field,
                                        max_degree=cfg.max_degree))
    all_pass = all(r["pass"] for r in results)
    payload = _base_payload(cfg, psi)
    payload.update({
        "theta_seed": used,
        "pass": all_pass,
        "vertices": [{"vertex": str(r["vertex"]), "pass": r["pass"]}
                     for r in results],
    })
    lines = [f"vertex {r['vertex']}: {'pass' if r['pass'] else 'fail'}"
             for r in results]
    lines.append(f"all: {'pass' if all_pass else 'fail'}")
    return (EXIT_OK if all_pass else EXIT_FAILS), payload, lines


def _cmd_corpus(cfg: RunConfig, field: PrimeField):
    lines: list[str] = []
    rows = run_all(echo=lines.append if cfg.format == "text" else None)
    ok = all(r["passed"] and r["within_budget"] for r in rows)
    payload = {"command": cfg.command, "criteria": rows, "passed": ok}
    lines.append(f"corpus: {'pass' if ok else 'fail'} ({len(rows)} criteria)")
    return (EXIT_OK if ok else EXIT_FAILS), payload, lines


_COMMANDS = {
    "fvec": _cmd_fvec,
    "cohomology": _cmd_cohomology,
    "hilbert": _cmd_hilbert,
    "lsop": _cmd_lsop,
    "depth": _cmd_depth,
    "cm": _cmd_cm,
    "partition-homology": _cmd_partition_homology,
    "pou": _cmd_pou,
    "schenzel": _cmd_schenzel,
    "pd": _cmd_pd,
    "dehn-sommerville": _cmd_dehn_sommerville,
    "lefschetz": _cmd_lefschetz,
    "kuhnel": _cmd_kuhnel,
    "subdiv-check": _cmd_subdiv_check,
    "cone-lemma": _cmd_cone_lemma,
    "corpus": _cmd_corpus,
}


def run(config: RunConfig, out=None, err=None) -> int:
    """Execute one configured command and stream its report."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        field = PrimeField(config.prime)
    except LinAlgError as e:
        print(f"error: {e}", file=err)
        return EXIT_INPUT
    handler = _COMMANDS.get(config.command)
    if handler is None:
        print(f"error: unknown command {config.command!r}", file=err)
        return EXIT_INPUT
    if config.max_degree is not None and config.max_degree < 0:
        print("error: --max-degree must be nonnegative", file=err)
        return EXIT_INPUT
    if config.trials < 1:
        print("error: --trials must be at least 1", file=err)
        return EXIT_INPUT
    try:
        code, payload, lines = handler(config, field)
    except _NoTheta as e:
        code, payload, lines = _no_theta(config, e.args[0])
    except InputError as e:
        print(f"error: {e}", file=err)
        return EXIT_INPUT
    except (ComplexError, FaceRingError, KoszulError, PartitionError,
            DualityError, LinAlgError) as e:
        print(f"error: {e}", file=err)
        return EXIT_INPUT
    except MemoryError:
        # exit 1 would read as "the statement fails"
        print(f"error: out of memory running {config.command}", file=err)
        return EXIT_INPUT
    if config.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")), file=out)
    else:
        for line in lines:
            print(line, file=out)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlab",
        description="Exact Stanley-Reisner computations over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} command")
        if name != "corpus":
            sp.add_argument("--input", required=True,
                            help="path to a JSON file or builtin:<name>")
        sp.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                        help="prime modulus (default 2147483647)")
        sp.add_argument("--seed", type=int, default=0,
                        help="base seed for random parameter draws")
        sp.add_argument("--trials", type=int, default=3,
                        help="number of sampling retries")
        sp.add_argument("--max-degree", type=int, default=None,
                        help="nonnegative degree window (default: per command)")
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format")
        if name == "lefschetz":
            sp.add_argument("--mode", choices=LEFSCHETZ_MODES, default="strong",
                            help="which Lefschetz property to test")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        prime=args.prime,
        seed=args.seed,
        trials=args.trials,
        max_degree=args.max_degree,
        format=args.format,
        mode=getattr(args, "mode", "strong"),
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
