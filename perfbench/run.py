"""Benchmark of scaleflow's time to verdict.

Usage (from the root of a scaleflow checkout):

    python3 perfbench/run.py --workload orbit_sweep --seed 0 --seconds 30 --trace 0

Each CLI invocation of the workload runs in a fresh interpreter, as a user's
does; no state carries from one invocation to the next.  A pass runs every
invocation once, and passes repeat until ``--seconds`` have gone by (at
least three, so a median pass exists).  Pass 0 is the reference: an
invocation fails if it exits non-zero or if its report bytes differ from
pass 0's.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones.  The last line of standard output is one JSON object; the lines
before it name every metric with its unit, the sample count and the run
context (backend, versions, cores, BLAS threads).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".perfbench_work"

# Stop starting passes once the next one could end past PASS_LIMIT_S, and
# kill a child still running at RUN_LIMIT_S, so a run ends within 180 s.
PASS_LIMIT_S = 150.0
RUN_LIMIT_S = 170.0
MIN_PASSES = 3  # a median that one stalled pass cannot move

# (span, fields) reported from the traced passes; fields index the span stats.
# total_s (inclusive) is kept where the work runs in integrand closures that
# are not spans themselves, so self time alone would hide it.
_FIELDS = {"calls": 0, "total_s": 1, "self_s": 2, "points": 3}
_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "points": "count"}
SPAN_METRICS = [
    ("actions.apply", ("calls", "points", "self_s")),
    ("groups.weight", ("calls",)),
    ("measures.ConstructedMeasure.pairing", ("calls", "self_s", "total_s")),
    ("measures.TestFunction.call", ("calls", "points", "self_s")),
    ("actions.certify_group_law", ("self_s",)),
    ("actions.certify_absorption", ("self_s",)),
    ("contraction.certify_submultiplicative", ("self_s",)),
    ("contraction.fixed_point", ("self_s",)),
    ("measures.pushforward_pairing", ("calls", "self_s", "total_s")),
    ("quadrature.boundary_mass_fraction", ("calls", "self_s")),
    ("quadrature.points_and_weights", ("calls", "points", "self_s")),
    ("quadrature.integrate_with_refinement", ("calls", "self_s", "total_s")),
    ("kernels.pairwise_dot", ("calls", "points", "self_s")),
    ("kernels.trig_eval", ("calls", "self_s")),
    ("trig.TrigPolynomial.call", ("self_s",)),
    ("algebra.spectral_pairing", ("calls", "self_s")),
    ("sigma.envelope_norm", ("calls", "self_s", "total_s")),
    ("sigma.sigma_pairing_lhs", ("self_s",)),
    ("sigma.sigma_pairing_rhs", ("self_s",)),
    ("sigma.trace_norm_bound_check", ("self_s", "total_s")),
    ("sigma.TwoScaleField.trace_values", ("self_s",)),
    ("meanvalue.empirical_mean", ("self_s", "total_s")),
    ("meanvalue.convolve", ("self_s",)),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, value from one traced pass)
DERIVED_METRICS = [
    ("setup.scipy_import_s", "s", lambda t: t["import"]["scipy"]),
    ("setup.scaleflow_import_s", "s", lambda t: t["import"]["scaleflow"]),
    ("quadrature.max_grid_points", "count",
     lambda t: t["maxima"].get("quadrature.max_grid_points", 0)),
    ("quadrature.nodes_evaluated", "count",
     lambda t: t["counters"].get("quadrature.nodes_evaluated", 0)),
    ("quadrature.repeat_eval_ratio", "ratio",
     lambda t: _ratio(t["counters"].get("quadrature.repeat_evaluations", 0),
                      t["counters"].get("quadrature.evaluations", 0))),
    ("kernels.trig_eval.term_points", "count",
     lambda t: t["counters"].get("kernels.trig_eval.term_points", 0)),
    ("kernels.trig_eval.bytes_computed", "bytes",
     lambda t: t["counters"].get("kernels.trig_eval.bytes_computed", 0)),
    ("sigma.envelope_norm.repeat_ratio", "ratio",
     lambda t: _ratio(t["stats"].get("sigma.envelope_norm", [0])[0], t["envelope_distinct"])),
    ("cli.battery_parallel_efficiency", "ratio",
     lambda t: _ratio(t["counters"].get("cli.battery_entry_s", 0.0),
                      t["counters"].get("cli.pool_wall_s", 0.0))),
    ("config.build_s", "s", lambda t: t["counters"].get("config.outer_s", 0.0)),
    ("reports.write_s", "s", lambda t: t["counters"].get("reports.outer_s", 0.0)),
    ("reports.bytes", "bytes", lambda t: t["counters"].get("reports.bytes", 0)),
]


END_TO_END = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("verdict_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "ratio"),
    ("accuracy_margin", "decades"),
]


# -- child runs -------------------------------------------------------------------


def _digest(out: str) -> str:
    """SHA-256 over the relative paths and bytes of every report file."""
    sha = hashlib.sha256()
    for base, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            sha.update(os.path.relpath(path, out).encode() + b"\0")
            with open(path, "rb") as handle:
                sha.update(handle.read())
    return sha.hexdigest()


def parse_importtime(stderr: str) -> dict:
    """Seconds of scipy (outermost imports, cumulative) and scaleflow (self) imports."""
    entries = []  # [name, level, self_us, cumulative_us, parent index]
    stack = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|", 2)
        level = (len(raw) - len(raw.lstrip())) // 2
        index = len(entries)
        entries.append([raw.strip(), level, int(self_us), int(cum_us), None])
        while stack and entries[stack[-1]][1] > level:
            entries[stack.pop()][4] = index
        stack.append(index)

    def under_scipy(entry) -> bool:
        parent = entry[4]
        while parent is not None:
            if entries[parent][0].split(".")[0] == "scipy":
                return True
            parent = entries[parent][4]
        return False

    scipy_us = sum(e[3] for e in entries
                   if e[0].split(".")[0] == "scipy" and not under_scipy(e))
    scaleflow_us = sum(e[2] for e in entries if e[0].split(".")[0] == "scaleflow")
    return {"scipy": scipy_us / 1e6, "scaleflow": scaleflow_us / 1e6}


class Runner:
    def __init__(self, root: str, workdir: str, invocations: list, deadline: float):
        self.root = root
        self.workdir = workdir
        self.invocations = invocations
        self.deadline = deadline
        self.reference = {}  # label -> report digest of pass 0
        self.errors = []  # (label, verdict error, tolerance) from pass 0
        self.failures = []
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def run_pass(self, index: int, traced: bool) -> list:
        """One child result dict (or None on failure) per invocation."""
        pass_dir = os.path.join(self.workdir, f"pass{index}")
        os.makedirs(pass_dir)
        results = []
        for inv in self.invocations:
            results.append(self._invoke(inv, pass_dir, index, traced))
        shutil.rmtree(pass_dir)
        return results

    def _fail(self, index: int, inv, reason: str, detail: str = "") -> None:
        self.failures.append((index, inv.label, reason))
        print(f"FAILED pass {index} {inv.label}: {reason}", file=sys.stderr)
        if detail:
            print(detail[-4000:], file=sys.stderr)

    def _invoke(self, inv, pass_dir: str, index: int, traced: bool):
        out = os.path.join(pass_dir, inv.label)
        result_path = out + ".json"
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime"]
        cmd += [CHILD, "--result", result_path]
        if traced:
            cmd.append("--trace")
        cmd += ["--", *inv.argv(out)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self._fail(index, inv, f"timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            self._fail(index, inv, f"runner exited {proc.returncode}", proc.stderr)
            return None
        with open(result_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        if not result["module"].startswith(os.path.join(self.root, "src") + os.sep):
            self._fail(index, inv, f"imported scaleflow from {result['module']}")
            return None
        if result["exit"] != 0:
            self._fail(index, inv, f"CLI exited {result['exit']}", proc.stdout + proc.stderr)
            return None
        digest = _digest(out)
        if index == 0:
            self.reference[inv.label] = digest
            self.errors += [(f"{inv.label}:{label}", err, tol)
                            for label, err, tol in workloads.judged_errors(inv, out)]
        elif digest != self.reference[inv.label]:
            self._fail(index, inv, "report bytes differ from pass 0")
            return None
        if traced:
            result["trace"]["import"] = parse_importtime(proc.stderr)
        return result


# -- statistics and output --------------------------------------------------------


def _describe(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def _pass_sums(passes: list) -> dict:
    return {
        "verdict_s": [sum(r["verdict_s"] for r in p) for p in passes],
        "verdict_cpu_s": [sum(r["cpu_s"] for r in p) for p in passes],
        "peak_rss_mb": [max(r["peak_rss_mb"] for r in p) for p in passes],
    }


def _merge_traces(results: list) -> dict:
    """Sum the traces of one pass's invocations."""
    traces = [r["trace"] for r in results]
    merged = spans.merge(traces)
    merged["envelope_distinct"] = sum(t["envelope_distinct"] for t in traces)
    # one import per invocation; report the median invocation's
    merged["import"] = {key: statistics.median([t["import"][key] for t in traces])
                        for key in ("scipy", "scaleflow")}
    return merged


def _fired(trace: dict) -> set:
    fired = {name for name, entry in trace["stats"].items() if entry[0] > 0}
    fired |= {name.split(".", 1)[0] for name in fired}
    if trace["counters"].get("cli.battery.calls", 0) > 0:
        fired.add("cli.battery")
    return fired


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run(args, root: str, workdir: str) -> int:
    start = time.monotonic()
    invocations = workloads.generate(args.workload, args.seed, root, workdir)
    runner = Runner(root, workdir, invocations, start + RUN_LIMIT_S)
    passes = []  # (traced, results)
    longest = 0.0
    while True:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        began = time.monotonic()
        passes.append((traced, runner.run_pass(index, traced)))
        longest = max(longest, time.monotonic() - began)
        elapsed = time.monotonic() - start
        if runner.failures:
            break
        if elapsed + longest > PASS_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and elapsed >= args.seconds:
            break

    attempted = sum(len(results) for _, results in passes)
    failed = len(runner.failures)
    contexts = {json.dumps(r["context"], sort_keys=True)
                for _, results in passes for r in results if r is not None}
    for ctx in sorted(contexts):
        print(f"context {ctx}")
    correct = failed == 0 and len(contexts) == 1
    if len(contexts) > 1:
        print("run context changed between invocations", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(invocations)} invocations, "
          f"{failed} failed of {attempted} attempted (fail_rate {failed / attempted:g})")
    if not correct:
        _emit(False, attempted, failed, {})
        return 1

    untraced = [results for traced, results in passes if not traced]
    sums = _pass_sums(untraced)
    if not args.trace:
        worst = min(runner.errors, key=lambda e: workloads.margin(e[1], e[2]))
        samples = {
            "setup_s": [r["setup_s"] for results in untraced for r in results],
            **sums,
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["pass_rate"] = 1.0 - failed / attempted
        values["accuracy_margin"] = workloads.margin(worst[1], worst[2])
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        for name, (value, unit) in metrics.items():
            note = _describe(samples[name]) if name in samples else ""
            if name == "accuracy_margin":
                note = f"worst {worst[0]} = {worst[1]:.3g} against {worst[2]:.3g}"
            elif name == "pass_rate":
                note = f"fail_rate = {failed}/{attempted} = {failed / attempted:g}"
            print(f"metric {name} = {value:.6g} {unit} ({note})")
        _emit(True, attempted, failed, metrics)
        return 0

    traces = [_merge_traces(results) for traced, results in passes if traced]
    missing = sorted(set(workloads.expected_spans(args.workload))
                     - set.union(*(_fired(t) for t in traces)))
    traced_sums = _pass_sums([results for traced, results in passes if traced])
    overhead = (statistics.median(traced_sums["verdict_s"])
                - statistics.median(sums["verdict_s"]))
    metrics = {}
    for span, fields in SPAN_METRICS:
        for field in fields:
            values = [t["stats"].get(span, [0, 0.0, 0.0, 0])[_FIELDS[field]] for t in traces]
            metrics[f"{span}.{field}"] = (statistics.median(values), _UNITS[field])
    for name, unit, extract in DERIVED_METRICS:
        metrics[name] = (statistics.median([extract(t) for t in traces]), unit)
    metrics["trace.overhead_s"] = (overhead, "s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (median of n={len(traces)} traced passes)")
    print(f"traced verdict_s {_describe(traced_sums['verdict_s'])}; "
          f"untraced verdict_s {_describe(sums['verdict_s'])}")
    if missing:
        print(f"spans that never fired on {args.workload}: {', '.join(missing)}",
              file=sys.stderr)
        _emit(False, attempted, failed, metrics)
        return 1
    _emit(True, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "scaleflow", "cli.py")) or \
            not os.path.isdir(os.path.join(root, "configs")):
        print(f"no scaleflow source tree (src/scaleflow, configs/) under {root}",
              file=sys.stderr)
        return 2
    base = os.path.join(root, WORK_DIR)
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
