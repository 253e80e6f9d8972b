"""Command-line surface: every computation as a subcommand with
machine-readable (JSON or CSV) output.

Value-typed options accept either an inline comma-separated string or
"@path" to read the same content from a file. Results go to stdout (or
--output); diagnostics go to stderr with a nonzero exit code.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import click
import numpy as np

from . import dataio
from .aggregate import (ScoreMatrix, aggregation_objective, lb_kmeans,
                        mean_ordering)
from .dataio import ParseError
from .divergence import (DiscountProfile, auc_loss, confidence_bound,
                         lb_divergence, lb_divergence_batch, ndcg_loss)
from .mallows import (ExtendedLovaszMallows, LovaszMallows, estimate_log_Z,
                      log_density_unnormalized, map_permutation)
from .permutation import (Permutation, TieError, TieRule, induced_ordering,
                          kendall_tau, spearman_footrule)
from .submodular import CardinalityConcave, GraphCut, SetFunction

DEFAULT_SEED = 1729
LOW_CONFIDENCE_VARIATION = 1e-9


def _read_source(value: str) -> str:
    if value.startswith("@"):
        return Path(value[1:]).read_text(encoding="utf-8")
    return value


def _parse_vector(value: str) -> np.ndarray:
    return dataio.parse_vector(_read_source(value))


def _parse_permutation(value: str) -> Permutation:
    return Permutation(dataio.parse_int_vector(_read_source(value)))


def _load_matrix(source: str) -> ScoreMatrix:
    if source == "-":
        text = sys.stdin.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        return ScoreMatrix.from_json(text)
    return ScoreMatrix.from_csv(text)


def resolve_generator(spec: str, n: int) -> SetFunction:
    """Build a set function from the small CLI grammar.

    cardinality:sqrt | cardinality:log | cardinality:file=<path> (JSON gain
    table) | cut:uniform | cut:file=<path> (CSV matrix) | topm:<m>.
    """
    family, _, arg = spec.partition(":")
    if family == "cardinality":
        if arg == "sqrt":
            return CardinalityConcave.sqrt(n)
        if arg == "log":
            return CardinalityConcave.log(n)
        if arg.startswith("file="):
            gains = dataio.load_gain_table(
                Path(arg[5:]).read_text(encoding="utf-8"))
            if gains.size != n:
                raise ValueError(
                    f"gain table has {gains.size} entries, expected {n}")
            return CardinalityConcave(gains)
    elif family == "cut":
        if arg == "uniform":
            return GraphCut.uniform(n)
        if arg.startswith("file="):
            W, _ = dataio.parse_csv_matrix(
                Path(arg[5:]).read_text(encoding="utf-8"))
            return GraphCut(W)
    elif family == "topm":
        try:
            m = int(arg)
        except ValueError:
            raise ValueError(f"bad top-m cutoff: {arg!r}") from None
        return CardinalityConcave.top_m(n, m)
    raise ValueError(f"unknown generator spec: {spec!r}")


def _cell(value, csv: bool) -> str:
    """A scalar as CSV or JSON text, a float rounded to 12 significant digits."""
    if isinstance(value, float):
        r = float(f"{value:.12g}")
        if csv:
            return f"{r:.12g}"
        return repr(r) if math.isfinite(r) else json.dumps(r)
    return str(value) if csv else json.dumps(value)


_INTEGRAL = re.compile(r"\n-?\d+(?=\n)")  # a line of integral %g text


def _float_cells(values: np.ndarray, csv: bool) -> list:
    """_cell of every float in values, from one %-format call.

    A normal float's 12-digit %g text is that of its rounded value r, and
    in JSON also repr(r) once ".0" follows integral fixed-point text: r
    has at most 12 significant digits, so repr's shortest round trip
    writes the same ones. Three kinds go through _cell instead: non-finite
    values, subnormals (fewer digits round trip) and 1e12 <= |r| < 1e16,
    where repr writes fixed point and %g an exponent.
    """
    text = ("\n%.12g" * values.size) % tuple(values.tolist()) + "\n"
    if not csv:
        text = _INTEGRAL.sub(r"\g<0>.0", text)
    cells = text.split("\n")[1:-1]
    a = np.abs(values)
    # 1e12 - 0.5 is the least float that rounds to 1e12 at 12 digits
    odd = (~np.isfinite(values) | ((a > 0) & (a < np.finfo(float).tiny))
           | ((a >= 1e12 - 0.5) & (a < 1e16)))
    for i in np.flatnonzero(odd).tolist():
        cells[i] = _cell(float(values[i]), csv)
    return cells


def _tokens(a: np.ndarray, csv: bool):
    """The _cell texts of a's distinct elements, and each element's index
    into them. Distinct means a distinct bit pattern, so -0.0 and 0.0 stay
    apart and ints keep their int text."""
    floats = a.dtype.kind == "f"
    keys = np.ascontiguousarray(a, np.float64).view(np.uint64) if floats else a
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    text = (_float_cells(uniq.view(np.float64), csv) if floats
            else [_cell(v, csv) for v in uniq.tolist()])
    return np.array(text, dtype=object), inverse


def _newline(indent, level: int) -> str:
    return "" if indent is None else "\n" + " " * (indent * level)


def _brackets(ends: str, items: list, indent, level: int) -> str:
    """The item texts bracketed as json.dumps does at this level."""
    if not items:
        return ends
    inner = _newline(indent, level + 1)
    return (ends[0] + inner + ("," + (inner or " ")).join(items)
            + _newline(indent, level) + ends[1])


def _array_json(a: np.ndarray, indent, level: int) -> str:
    """json.dumps layout of a nonempty ndarray's .tolist() in one join.

    What follows an element depends only on t, the number of innermost
    axes that end with it: the closing brackets of those t lists, then,
    unless the whole array ends, a separator and t opening brackets. Each
    distinct value's text is joined once to the separator of t = 0; only
    the elements that end a list are joined one by one.
    """
    d = a.ndim
    opens = ["[" + _newline(indent, level + i + 1) for i in range(d)]
    closes = [_newline(indent, level + i) + "]" for i in range(d)]
    after = []
    for t in range(d + 1):
        text = "".join(reversed(closes[d - t:]))
        if t < d:
            text += ("," + (_newline(indent, level + d - t) or " ")
                     + "".join(opens[d - t:]))
        after.append(text)
    ends = np.zeros(a.shape, dtype=np.intp)
    for t in range(1, d + 1):
        ends[(...,) + (-1,) * t] += 1
    ends = ends.ravel()
    tokens, inverse = _tokens(a, False)
    body = (tokens + after[0])[inverse]
    last = np.flatnonzero(ends)
    body[last] = tokens[inverse[last]] + np.array(after, object)[ends[last]]
    return "".join(opens) + "".join(body.tolist())


def _json(value, indent=None, level: int = 0) -> str:
    """json.dumps(value, indent=indent) with every float rounded to 12
    significant digits and every ndarray read as its .tolist(); dict keys
    are strings."""
    if isinstance(value, np.ndarray):
        if value.size:
            return _array_json(value, indent, level)
        value = value.tolist()
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_json(v, indent, level + 1)}"
                 for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [_json(v, indent, level + 1) for v in value]
    else:
        return _cell(value, False)
    return _brackets("{}" if isinstance(value, dict) else "[]", items,
                     indent, level)


def _report_text(report, fmt: str) -> str:
    """Indented JSON, or CSV: a dict as key,value lines (containers as
    compact JSON), a (header, 2-D array) pair as a table."""
    if fmt == "json":
        return _json(report, 2) + "\n"
    if isinstance(report, dict):
        lines = [f"{key},{_json(val)}"
                 if isinstance(val, (dict, list, tuple, np.ndarray))
                 else f"{key},{_cell(val, True)}"
                 for key, val in report.items()]
    else:
        header, rows = report
        tokens, inverse = _tokens(rows, True)
        cells = tokens[inverse].reshape(rows.shape).tolist()
        lines = [",".join(header), *map(",".join, cells)]
    return "\n".join(lines) + "\n"


def _emit(ctx, report):
    text = _report_text(report, ctx.obj["format"])
    out = ctx.obj["output"]
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")


@click.group()
@click.option("--generator", default="cardinality:sqrt", show_default=True,
              help="Set-function spec: cardinality:{sqrt,log,file=PATH}, "
                   "cut:{uniform,file=PATH}, or topm:M.")
@click.option("--tie-rule", type=click.Choice(["lowest-index", "reject"]),
              default="lowest-index", show_default=True,
              help="How to order tied scores.")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the report here instead of stdout.")
@click.pass_context
def cli(ctx, generator, tie_rule, seed, fmt, output):
    """Score/permutation divergence toolkit."""
    ctx.obj = {
        "generator": generator,
        "rule": (TieRule.LOWEST_INDEX_FIRST if tie_rule == "lowest-index"
                 else TieRule.REJECT),
        "seed": seed,
        "format": fmt,
        "output": output,
    }


@cli.command()
@click.option("--x", "x_source", required=True,
              help="Score vector (inline or @file).")
@click.option("--sigma", "sigma_source", required=True,
              help="Permutation (inline or @file).")
@click.pass_context
def divergence(ctx, x_source, sigma_source):
    """Divergence between a score vector and a permutation."""
    x = _parse_vector(x_source)
    sigma = _parse_permutation(sigma_source)
    rule = ctx.obj["rule"]
    f = resolve_generator(ctx.obj["generator"], x.size)
    value = lb_divergence(f, x, sigma, rule)
    _emit(ctx, {
        "value": value,
        "generator": ctx.obj["generator"],
        "sigma": list(sigma.items),
        "sigma_x": list(induced_ordering(x, rule).items),
        "confidence_bound": confidence_bound(f, x),
        "inputs": {"x": x},
    })


@cli.command()
@click.argument("matrix_source")
@click.option("--weights", default=None, help="Row weights (inline or @file).")
@click.pass_context
def aggregate(ctx, matrix_source, weights):
    """Mean vector and representative ordering of a score matrix."""
    matrix = _load_matrix(matrix_source)
    w = _parse_vector(weights) if weights is not None else None
    rule = ctx.obj["rule"]
    sigma, mu = mean_ordering(matrix, w, rule)
    f = resolve_generator(ctx.obj["generator"], matrix.n_items)
    mu_sorted = np.sort(mu)[::-1]
    variation = float(np.abs(np.diff(mu_sorted)).sum())
    _emit(ctx, {
        "mean_vector": mu,
        "ordering": list(sigma.items),
        "objective": aggregation_objective(matrix, f, sigma, w),
        "total_variation_of_mean": variation,
        "low_confidence": variation < LOW_CONFIDENCE_VARIATION,
        "inputs": {"rows": matrix.rows, "weights": w},
    })


@cli.command()
@click.argument("matrix_source")
@click.option("--k", type=int, required=True, help="Number of clusters.")
@click.option("--max-iter", type=int, default=100, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def cluster(ctx, matrix_source, k, max_iter, tol):
    """Divergence k-means over the rows of a score matrix."""
    matrix = _load_matrix(matrix_source)
    f = resolve_generator(ctx.obj["generator"], matrix.n_items)
    result = lb_kmeans(matrix, f, k, max_iter=max_iter, tol=tol,
                       seed=ctx.obj["seed"], rule=ctx.obj["rule"])
    report = result.to_dict()
    report["assignments"] = np.array(result.assignments)
    report["k"] = k
    report["inputs"] = {"rows": matrix.rows, "seed": ctx.obj["seed"]}
    _emit(ctx, report)


@cli.command("eval")
@click.option("--metric", type=click.Choice(["ndcg", "auc", "kendall",
                                             "spearman"]), required=True)
@click.option("--sigma", "sigma_source", required=True,
              help="Permutation under evaluation (inline or @file).")
@click.option("--pi", "pi_source", default=None,
              help="Second permutation (kendall/spearman).")
@click.option("--relevance", default=None, help="Relevance vector (ndcg).")
@click.option("--discount", default="log2", show_default=True,
              help="Discount profile: 'log2' or @file with a JSON array.")
@click.option("--cutoff", type=int, default=None,
              help="Rank cutoff for ndcg (default: all ranks).")
@click.option("--good", default=None, help="Good items (auc).")
@click.option("--bad", default=None, help="Bad items (auc).")
@click.pass_context
def eval_cmd(ctx, metric, sigma_source, pi_source, relevance, discount,
             cutoff, good, bad):
    """Ranking measures and permutation metrics."""
    sigma = _parse_permutation(sigma_source)
    inputs = {"sigma": list(sigma.items)}
    if metric in ("kendall", "spearman"):
        if pi_source is None:
            raise click.UsageError(f"--pi is required for {metric}")
        pi = _parse_permutation(pi_source)
        fn = kendall_tau if metric == "kendall" else spearman_footrule
        value = fn(sigma, pi)
        inputs["pi"] = list(pi.items)
    elif metric == "ndcg":
        if relevance is None:
            raise click.UsageError("--relevance is required for ndcg")
        r = _parse_vector(relevance)
        if discount == "log2":
            profile = DiscountProfile.log2(r.size, cutoff)
        else:
            profile = DiscountProfile.from_json(_read_source(discount), cutoff)
        value = ndcg_loss(r, sigma, profile, ctx.obj["rule"])
        inputs.update(relevance=r, discount=list(profile.values),
                      cutoff=profile.cutoff)
    else:
        if good is None or bad is None:
            raise click.UsageError("--good and --bad are required for auc")
        G = dataio.parse_int_vector(_read_source(good))
        B = dataio.parse_int_vector(_read_source(bad))
        value = auc_loss(G, B, sigma)
        inputs.update(good=G, bad=B)
    _emit(ctx, {"metric": metric, "value": float(value), "inputs": inputs})


@cli.command()
@click.argument("subaction", type=click.Choice(["density", "logZ", "map"]))
@click.option("--sigma", "sigma_source", default=None,
              help="Reference permutation (density/logZ).")
@click.option("--x", "x_source", default=None, help="Score vector (density).")
@click.option("--theta", type=float, default=1.0, show_default=True,
              help="Concentration (density/logZ).")
@click.option("--matrix", "matrix_source", default=None,
              help="Score matrix path (map).")
@click.option("--thetas", default=None,
              help="Per-row concentrations (map; default uniform 1).")
@click.option("--samples", type=int, default=100000, show_default=True,
              help="Monte-Carlo samples (logZ).")
@click.pass_context
def mallows(ctx, subaction, sigma_source, x_source, theta, matrix_source,
            thetas, samples):
    """Exponential ranking model: density, normalization, MAP inference."""
    if subaction in ("density", "logZ"):
        if sigma_source is None:
            raise click.UsageError("--sigma is required")
        sigma = _parse_permutation(sigma_source)
        f = resolve_generator(ctx.obj["generator"], len(sigma))
        model = LovaszMallows(f, sigma, theta)
        if subaction == "density":
            if x_source is None:
                raise click.UsageError("--x is required for density")
            x = _parse_vector(x_source)
            _emit(ctx, {
                "log_density_unnormalized": log_density_unnormalized(model, x),
                "theta": theta,
                "sigma": list(sigma.items),
                "generator": ctx.obj["generator"],
                "inputs": {"x": x},
            })
        else:
            estimate, std_error = estimate_log_Z(model, samples,
                                                 ctx.obj["seed"])
            _emit(ctx, {
                "log_Z": estimate,
                "std_error": std_error,
                "theta": theta,
                "sigma": list(sigma.items),
                "samples": samples,
                "seed": ctx.obj["seed"],
                "generator": ctx.obj["generator"],
            })
    else:
        if matrix_source is None:
            raise click.UsageError("--matrix is required for map")
        matrix = _load_matrix(matrix_source)
        t = (_parse_vector(thetas) if thetas is not None
             else np.ones(matrix.n_rows))
        f = resolve_generator(ctx.obj["generator"], matrix.n_items)
        model = ExtendedLovaszMallows(f, matrix, tuple(t))
        sigma = map_permutation(model)
        _emit(ctx, {
            "map": list(sigma.items),
            "thetas": t,
            "generator": ctx.obj["generator"],
            "inputs": {"rows": matrix.rows},
        })


@cli.command()
@click.option("--sigma", "sigma_source", required=True,
              help="Reference permutation (length = dims).")
@click.option("--resolution", type=int, default=21, show_default=True,
              help="Lattice points per axis on [0, 1].")
@click.option("--dims", type=click.Choice(["2", "3"]), default="2",
              show_default=True)
@click.pass_context
def grid(ctx, sigma_source, resolution, dims):
    """Divergence sampled on a uniform lattice, for external plotting."""
    dims = int(dims)
    sigma = _parse_permutation(sigma_source)
    if len(sigma) != dims:
        raise ValueError(f"sigma must have length {dims}")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    f = resolve_generator(ctx.obj["generator"], dims)
    axis = np.linspace(0.0, 1.0, resolution)
    grids = np.meshgrid(*([axis] * dims), indexing="ij")
    points = np.column_stack([g.ravel() for g in grids])
    values = lb_divergence_batch(f, points, sigma, ctx.obj["rule"])
    header = [f"x{i + 1}" for i in range(dims)] + ["divergence"]
    rows = np.column_stack([points, values])
    if ctx.obj["format"] == "json":
        _emit(ctx, {"columns": header, "rows": rows,
                    "sigma": list(sigma.items),
                    "generator": ctx.obj["generator"]})
    else:
        _emit(ctx, (header, rows))


def main():
    try:
        # overflow surfaces as a non-finite result that the library rejects,
        # so numpy's warnings would only add lines to the one-line error
        with np.errstate(over="ignore", invalid="ignore"):
            cli(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except (ParseError, TieError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
