"""List the functions in ``src/repro`` no user path reaches: ``python benchmarks/reach.py`` (minutes).

Runs each of :data:`PATHS` (``|``-separated arguments to ``python -m repro.experiments``, or to ``python``
after ``@``) and the service's POST/GET. Its ``sitecustomize.py`` records each function entered through
``sys.setprofile``/``threading.setprofile``, so pool workers and server threads count. Stdlib only."""

import ast, json, os, re, shlex, signal, subprocess, sys, tempfile, time
from pathlib import Path
from urllib.request import Request, urlopen

ROOT = Path(__file__).resolve().parent.parent
SRC, CLI = ROOT / "src", [sys.executable, "-m", "repro.experiments"]
HOOK = """import os, sys, threading
seen, files = set(), {{}}
def hook(frame, event, arg):
    key = (frame.f_code.co_filename, frame.f_code.co_firstlineno)
    if event == "call" and key not in seen and not seen.add(key) and key[0].startswith({pkg!r}):
        if os.getpid() not in files:
            files[os.getpid()] = open(os.path.join({out!r}, str(os.getpid())), "a")
        print(f"{{key[0]}}:{{key[1]}}", file=files[os.getpid()], flush=True)
sys.setprofile(hook)
threading.setprofile(hook)
"""
R, CSV, BENCH = "run --runs 1 --horizon 40", ROOT / "tests/data/sample_requests.csv", ROOT / "perfbench/run.py"
S = "--policy onth --policy offstat --topology erdos_renyi:n=60 --horizon 80 --runs 2 --sweep scenario.sojourn=5,10"
L5, ADAPT = "--topology line:n=5,unit_latency=false", "--runs 2 --ci 0.9 --target-halfwidth 10% --max-runs 6"
CONVEX = (f"{R} --policy onth --policy onbr --policy offstat --policy offth --load quadratic --topology "
          "erdos_renyi:n=60 --horizon 200 --scenario streaming:scenario=commuter,sojourn=5,materialize=")
PLANNERS = " ".join(f"--policy {p}" for p in "opt milp-opt beamopt offstat offbr offth onconf wfa".split())
PATHS = f"""all | all --cache-dir ac | all --cache-dir ac | --help | --list | list | fig11 --runs 1 --seed -1
{' | '.join(f'{c} --help' for c in 'run list cache trace enqueue worker serve report'.split())}
{R} --policy onth --topology erdos_renyi:n=60 --sweep scenario.sojourn=5,10 --workers 2 --json
{R} --policy onth {L5} --metric cost_ratio_vs:reference=OPT --sweep scenario.sojourn=2,5 | {CONVEX}false
{CONVEX}true | {R} --horizon 20 {PLANNERS} {L5} --sweep scenario.sojourn=2,5
{R} --policy milp-opt {L5},capacity=2 --scenario commuter:period=4,sojourn=2 --horizon 20
{R} --policy onth --policy onbr --topology erdos_renyi:n=40,capacity=8 | {R} --policy onth:start_node=99 {L5}
{R} --policy offstat --policy onth --topology erdos_renyi:n=1000 --scenario commuter --horizon 500
{R} --policy onbr --topology ring:n=30 --scenario gamma:concentration=1 --cache-dir c
{R} --policy onbr --topology star:n=30 --scenario flashcrowd --metric per_round_average | {R} --policy onthh
{R} --policy onbr --topology grid:rows=5,cols=6 --scenario diurnal --ci 0.9 --ci-method bootstrap --runs 3 --load power
{R} --policy onbr --topology random_tree:n=30 --scenario "overlay:parts=[commuter,flashcrowd]" --cache-dir c
{R} --policy onbr --topology line:n=50 --scenario streaming:scenario=gamma,rate=5 --cache-dir c
@-c "print(__import__('repro').load_rocketfuel('rocketfuel.txt').n)" | run {S} --cache-dir c | run {S} --cache-dir c
cache stats --cache-dir c | cache prune --cache-dir c --max-entries 2 | cache clear --cache-dir c
fig03 {ADAPT} --cache-dir a | fig03 {ADAPT} --cache-dir a | fig08 {ADAPT} --ci-method bootstrap --compare ONTH
{' | '.join(f'run {S},20 --cache-dir s {x}' for x in ('--shard 1/2', '--shard 2/2', ''))}
run {S} --compare OFFSTAT --workers 2 | run {S} --queue run.db | enqueue {S} --queue q.db --cache-dir q
worker --queue q.db --cache-dir q --poll 0.05 --idle-exit 1 | enqueue {S} --queue q.db --cache-dir q
trace validate {CSV} | trace stats {CSV} --json | trace convert {CSV} --out s.npz --nodes 5 --mapping hash
{R} --policy onth --topology line:n=5 --scenario replay:path=s.npz --metric cost_ratio_vs:reference=OPT --cache-dir c
report fig03 --runs 2 --ci 0.9 --compare ONTH --cache-dir r --out E.md --bundle b | run --from-bundle b --cache-dir r
report --from-bundle b --cache-dir r --out E2.md | {R} --policy onth --scenario commuter-static
{R} --policy onth --policy onbr --policy ilp:epoch=10,label=ILP --topology erdos_renyi:n=60 --compare ILP
{' | '.join(f'@{p}' for p in sorted((ROOT / 'examples').glob('*.py')))}
{' | '.join(f'@{BENCH} --seconds 0 --workload {w}' for w in ('size-sweep', 'lambda-sweep', 'optim-ratio'))}"""
SERVE = b'{"experiment": {"topology": {"kind": "line", "params": {"n": 5}}, "scenario": {"kind": "commuter"}, ' \
        b'"policies": [{"kind": "onth"}], "horizon": 20}, "runs": 1}'


def functions():
    """Every ``def`` in the package, keyed like its code object: (file, first line)."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for parent in ast.walk(ast.parse(path.read_text())):
            owner = f"{parent.name}." if isinstance(parent, ast.ClassDef) else ""
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[(str(path), first)] = f"{path.relative_to(SRC)}:{node.lineno} {owner}{node.name}"
    return found


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        (out := Path(work, "reached")).mkdir()
        Path(work, "sitecustomize.py").write_text(HOOK.format(pkg=str(SRC / "repro"), out=str(out)))
        Path(work, "rocketfuel.txt").write_text("NYC SEA 30\nSEA SFO 12\nSFO NYC 40\nNYC NYC 1\n")
        env = {**os.environ, "PYTHONPATH": f"{work}{os.pathsep}{SRC}"}
        for path in (p for line in PATHS.splitlines() for p in line.split(" | ")):
            argv = [sys.executable, *shlex.split(path[1:])] if path[0] == "@" else CLI + shlex.split(path)
            start = time.perf_counter()
            code = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            print(f"{time.perf_counter() - start:6.1f}s exit {code.returncode}  {path[:100]}", flush=True)
        server = subprocess.Popen(CLI + "serve --queue w.db --cache-dir w --port 0 --workers 1".split(),
                                  cwd=work, env=env, stderr=subprocess.PIPE, text=True)
        url = re.search(r"http://\S+", server.stderr.readline()).group(0)
        for _ in range(2):
            job = json.load(urlopen(Request(url + "/sweep", SERVE)))
            while job["status"] not in ("done", "failed"):
                time.sleep(0.1)
                job = json.load(urlopen(f"{url}/jobs/{job['job']}"))
        [urlopen(url + path).read() for path in ("/stats", "/jobs", "/healthz")]
        server.send_signal(signal.SIGINT)
        server.wait()
        reached = {(name, int(first)) for f in out.iterdir()
                   for name, first in (entry.rsplit(":", 1) for entry in f.read_text().split())}
    found = functions()
    missed = sorted(found.keys() - reached)
    print(f"reached {len(found) - len(missed)} of {len(found)} functions in src/repro; not reached:")
    print("\n".join(found[key] for key in missed))
