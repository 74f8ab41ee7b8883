"""Census of CLI outputs: which commands print or write other bytes than
another revision does.

The corpus is drawn from one seed through the benchmark's generators
(``perfbench.inputs``): finite 2x2 files with integer and three-decimal
tables, finite tables of other shapes, and coopetitive files, each in both
orientations, plus the paper-demo files and their negated twins.  Every
file gets ``analyze``, each ``solve`` concept and ``render``, run in
process as ``tests/test_golden.py`` runs them.  A command's record is its
exit code, stdout and stderr, with the temporary directory replaced by a
placeholder, and the SHA-256 of each file it wrote.

    python tests/census.py                      # one digest line per command
    python tests/census.py --parent REV         # commands that differ from REV
    python tests/census.py --golden --parent REV  # the same on test_golden's files
    python tests/census.py --geometry --seed 1 --parent REV  # geometry outputs

With ``--geometry`` the corpus is instead the benchmark's dense maps
(``perfbench.inputs.dense_maps``), and each map's records are the bytes,
sign bits included, of its lattice cloud's ``pareto_filter`` in both
flavours, ``extrema``, and ``tu_boundary`` and, for a cube,
``lattice_tu``, each in both orientations at ``1e-9`` and at ``1e-6``,
the default ``GameContext.tu_tol`` that every command reads: one line
per array or float, its shape and SHA-256.

With ``--parent``, the source tree of ``REV`` is exported with
``git archive`` into a temporary directory, and each side runs the same
corpus in its own process.  The commands that differ are printed grouped
by command, each with its first differing line.  The exit status is 0
whatever differs; it is non-zero only if the census itself fails.

To compare two older revisions A and B, run this file with ``--parent A``
in a clone whose ``src`` is B's and whose ``tests`` are this revision's:
each side imports only ``coopetition`` from its own tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import inputs as I  # noqa: E402

#: Random files per corpus by default, besides the four demo files.
FILES = 60


def corpus(seed: int, files: int = FILES) -> dict[str, dict]:
    """The demo files and their twins, then ``files`` drawn files by stem.

    Kinds cycle through integer and three-decimal 2x2 tables, tables of
    other shapes and coopetitive files, and orientations alternate.
    """
    from coopetition.demo import coopetitive_game_dict, finite_game_dict
    from test_golden import negated_file

    games = {}
    for stem, game in (("demo-finite", finite_game_dict()), ("demo-coop", coopetitive_game_dict())):
        games[f"{stem}-{game['orientation']}"] = game
        twin = negated_file(game)
        games[f"{stem}-{twin['orientation']}"] = twin
    rng = random.Random(seed)
    kinds = ("finite", "finite3", "table", "coop")
    for i in range(files):
        kind, orientation = kinds[i // 2 % len(kinds)], (I.GAIN, I.LOSS)[i % 2]
        if kind == "finite":
            game = I.finite_file(rng, orientation)
        elif kind == "coop":
            game = I.coop_file(rng, orientation)
        else:
            if kind == "finite3":
                # Three-decimal 2x2 tables: four coefficients of each drawn row.
                p1, p2 = ([row[:2], row[2:4]] for row in I.coop_coefficients(rng))
            else:
                rows, cols = rng.choice([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (3, 3)])
                p1, p2 = ([[rng.randint(-3, 6) for _ in range(cols)] for _ in range(rows)] for _ in range(2))
            game = {"kind": "finite", "orientation": orientation, "payoff1": p1, "payoff2": p2}
        games[f"{i:03d}-{kind}-{orientation}"] = game
    return games


def records(games: dict[str, dict]) -> dict[str, dict]:
    """Each command's record by "stem command", run in this process."""
    # Imported on use: a side's process puts its own package on sys.path first.
    from test_golden import commands, run_command

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for stem, game in games.items():
            for name, argv in commands(game).items():
                text, files = run_command(Path(tmp), stem, game, argv)
                digests = {ext: hashlib.sha256(data).hexdigest() for ext, data in files.items()}
                out[f"{stem} {name}"] = {"text": text, "files": digests}
    return out


def geometry_records(maps: list[dict]) -> dict[str, dict]:
    """Each geometry output's record by "map output", computed in this process."""
    import numpy as np
    from coopetition import Orientation, PayoffMap, extrema, lattice_tu, pareto_filter, sample_image, tu_boundary

    def text(*parts) -> str:
        lines = []
        for part in parts:
            a = np.asarray([(p.p1, p.p2) for p in part] if isinstance(part, tuple) else part, dtype=float)
            lines.append(f"{a.shape} {hashlib.sha256(a.tobytes()).hexdigest()}")
        return "\n".join(lines)

    def tu_parts(tub) -> tuple:
        return tub.optimal_sum, tub.witness_payoffs, tub.witness_preimages, tub.segment_ends

    out = {}
    for i, spec in enumerate(maps):
        arity, grid_n = spec["arity"], spec["grid_n"]
        pmap = PayoffMap(np.array(spec["coeffs"]), arity=arity)
        stem = f"{i:03d}-{arity}d-{spec['slopes'] or 'generic'}"
        cloud = sample_image(pmap, grid_n)
        outputs = {"extrema": text(extrema(cloud))}
        for flavor in ("maximal", "minimal"):
            b = pareto_filter(cloud, Orientation(spec["orientation"]), flavor)
            outputs[f"pareto_filter {flavor}"] = text(b.payoffs, b.preimages)
        for orientation in Orientation:
            for tol, tag in ((1e-9, ""), (1e-6, " 1e-6")):
                tub = tu_boundary(cloud, orientation, tol)
                outputs[f"tu_boundary {orientation.value}{tag}"] = text(*tu_parts(tub))
                if arity == 3:
                    tub, inf, sup = lattice_tu(pmap, grid_n, orientation, tol)
                    outputs[f"lattice_tu {orientation.value}{tag}"] = text(*tu_parts(tub), (inf, sup))
        for name, record in outputs.items():
            out[f"{stem} {name}"] = {"text": record, "files": {}}
    return out


def differences(base: dict[str, dict], head: dict[str, dict]) -> dict[str, list[str]]:
    """Per command name, one line for each stem whose record differs: the
    first differing line of the text, the output files that differ, or the
    side that did not run the command."""
    found = defaultdict(list)
    for key in list(base) + [key for key in head if key not in base]:
        stem, name = key.split(" ", 1)
        if key not in base or key not in head:
            found[name].append(f"{stem}: run by the {'head' if key in head else 'base'} only")
            continue
        if base[key] == head[key]:
            continue
        old, new = base[key]["text"].splitlines(), head[key]["text"].splitlines()
        at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        if old != new:
            was = old[at] if at < len(old) else "<no line>"
            now = new[at] if at < len(new) else "<no line>"
            found[name].append(f"{stem}: line {at + 1}: {was!r} -> {now!r}")
        else:
            exts = [ext for ext in base[key]["files"] if base[key]["files"][ext] != head[key]["files"][ext]]
            found[name].append(f"{stem}: {' and '.join(exts)} bytes differ")
    return dict(found)


def _side(src: Path, corpus_file: Path, out_file: Path, geometry: bool) -> dict[str, dict]:
    """The records of the package under ``src``, from a process of its own."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--records-of", str(src),
            "--corpus", str(corpus_file), "--out", str(out_file)] + ["--geometry"] * geometry
    subprocess.run(argv, check=True)
    return json.loads(out_file.read_text(encoding="utf-8"))


def _export(rev: str, dest: Path) -> Path:
    """``src`` of revision ``rev`` of this repository, extracted under ``dest``."""
    tar = dest / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(tar), rev, "src"], check=True)
    (dest / "tree").mkdir()
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest / "tree")], check=True)
    return dest / "tree" / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=26, help="seed of the drawn corpus")
    corpora = parser.add_mutually_exclusive_group()
    corpora.add_argument("--golden", action="store_true", help="run test_golden's files instead of a drawn corpus")
    corpora.add_argument("--geometry", action="store_true", help="compare geometry outputs on the dense maps")
    parser.add_argument("--parent", default=None, help="git revision to compare the working tree with")
    parser.add_argument("--records-of", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--corpus", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    run = geometry_records if args.geometry else records
    if args.records_of is not None:
        # One side of a comparison: the package under --records-of runs the corpus.
        sys.path.insert(0, args.records_of)
        import coopetition

        if not Path(coopetition.__file__).resolve().is_relative_to(Path(args.records_of).resolve()):
            raise ImportError(f"coopetition was imported from {coopetition.__file__}, not {args.records_of}")
        games = json.loads(Path(args.corpus).read_text(encoding="utf-8"))
        Path(args.out).write_text(json.dumps(run(games)), encoding="utf-8")
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    if args.golden:
        from test_golden import golden_games

        games = golden_games()
    elif args.geometry:
        games = I.dense_maps(args.seed)
    else:
        games = corpus(args.seed)
    if args.parent is None:
        for key, rec in run(games).items():
            h = hashlib.sha256(rec["text"].encode("utf-8"))
            for ext in sorted(rec["files"]):
                h.update(rec["files"][ext].encode("ascii"))
            print(f"{h.hexdigest()[:16]}  {key}")
        return 0
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        tmp = Path(tmp)
        corpus_file = tmp / "corpus.json"
        corpus_file.write_text(json.dumps(games), encoding="utf-8")
        base = _side(_export(args.parent, tmp), corpus_file, tmp / "base.json", args.geometry)
        head = _side(ROOT / "src", corpus_file, tmp / "head.json", args.geometry)
    found = differences(base, head)
    total = sum(map(len, found.values()))
    source = "test_golden's files" if args.golden else f"seed {args.seed}"
    if args.geometry:
        moved = {line.split(":", 1)[0] for lines in found.values() for line in lines}
        print(f"census: dense maps of seed {args.seed}, {len(games)} maps, {len(base)} outputs; "
              f"{total} outputs of {len(moved)} maps differ from {args.parent}")
    else:
        print(f"census: {source}, {len(games)} files, {len(base)} commands; "
              f"{total} differ from {args.parent}")
    for name in sorted(found):
        print(f"{name}: {len(found[name])} differ")
        for line in found[name]:
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
