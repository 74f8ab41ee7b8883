"""Golden hashes of every CLI command's output on seeded game files.

Each command runs ``cli.main`` in process.  Its hash covers the exit code,
stdout and stderr, with the temporary directory replaced by a placeholder,
and for ``render`` the bytes of the CSV and SVG files.  The games are drawn
by the benchmark's seeded generators, finite and coopetitive in both
orientations, plus the GAIN negation of the paper-demo coopetitive file.
A change to any reported value, refusal message or emitted byte shows up
here.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from coopetition.cli import SOLUTIONS, main  # noqa: E402
from coopetition.demo import coopetitive_game_dict  # noqa: E402
from perfbench import inputs as I  # noqa: E402

#: Lattice points per axis: finite files are sampled on the square, coopetitive ones on the cube.
GRID = {"finite": "129", "coopetitive": "33"}


def golden_games() -> dict[str, dict]:
    rng = random.Random(2012)
    games = {
        "finite-gain": I.finite_file(rng, I.GAIN),
        "finite-loss": I.finite_file(rng, I.LOSS),
    }
    for i in (1, 2):
        games[f"coop{i}-gain"] = I.coop_file(rng, I.GAIN)
        games[f"coop{i}-loss"] = I.coop_file(rng, I.LOSS)
    demo = coopetitive_game_dict()
    games["demo-negated-gain"] = dict(
        demo,
        orientation="gain",
        coefficients={k: [-v for v in vs] for k, vs in demo["coefficients"].items()},
    )
    return games


def commands(game: dict) -> dict[str, list[str]]:
    grid = ["--grid", GRID[game["kind"]]]
    cmds = {"analyze": ["analyze", "{game}"] + grid}
    for name in SOLUTIONS:
        cmds[f"solve {name}"] = ["solve", "{game}", "--solution", name] + grid
    cmds["render"] = ["render", "{game}", "--out-csv", "{csv}", "--out-svg", "{svg}"] + grid
    return cmds


def digest(tmp_path: Path, stem: str, game: dict, argv: list[str]) -> str:
    paths = {
        "game": tmp_path / f"{stem}.json",
        "csv": tmp_path / f"{stem}.csv",
        "svg": tmp_path / f"{stem}.svg",
    }
    paths["game"].write_text(json.dumps(game, indent=1) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(**{k: str(p) for k, p in paths.items()}) for arg in argv])
    h = hashlib.sha256()
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}".replace(str(tmp_path), "<tmp>")
    h.update(text.encode("utf-8"))
    for ext in ("csv", "svg"):
        if "{" + ext + "}" in argv:
            h.update(paths[ext].read_bytes())
            paths[ext].unlink()
    return h.hexdigest()


def all_digests(tmp_path: Path) -> dict[str, str]:
    return {
        f"{stem} {name}": digest(tmp_path, stem, game, argv)
        for stem, game in golden_games().items()
        for name, argv in commands(game).items()
    }


GOLDEN_SHA256 = {
    "finite-gain analyze": "1372909b8d549528b568d762d4c9f4a142bb19c6543b6cbee9ff7b01c402735d",
    "finite-gain solve ks": "420df51a90b7fffd68db9d491510394748baf07cb48af07b3b26415cc2e2cc64",
    "finite-gain solve nash-bargaining": "6d0647ce3d1d584e406ee81513118253e2bd2537c274258b1e6dc27a18d831b8",
    "finite-gain solve tu": "768868dc0e4dfba4aef18cc1f468d7885b06c450f9af619f192a97a1c014d131",
    "finite-gain solve proper-coopetitive": "8e084376997ce5453098da30640ef60e905929c0f58ae50328261d7f8130c775",
    "finite-gain solve win-win": "bd681ece279ea0812a4484ed404d84234c22ec47d743190ff21936be55704d21",
    "finite-gain solve compromise:pareto": "c889b866fb1ec874bd61df55f083425b62e4613c1bebe8697d504c94e9b58cdb",
    "finite-gain solve compromise:nash_pareto": "41b82a0e5b00d403af8cef3d063f30afe5fbc63480a42358a9022cc19767105e",
    "finite-gain solve compromise:conservative_pareto": "afa3daed9475a8f67cfa0de819009064c3ffafce2325421a4efae467cb7372b6",
    "finite-gain render": "d76f0f043798348bbdfcbbb8b67b51e1fedc17e52bb806483f4c65f340f86101",
    "finite-loss analyze": "95f6b2ddafb0b174b8cf404453c7a5c095b963afd2188f82ef62a0905b4a7c7e",
    "finite-loss solve ks": "4bdc9afed868afed06eb18bef0a86023ac30fc02abf51f6fa29fc57ca35442b4",
    "finite-loss solve nash-bargaining": "bb9a45b7daf9f5ebfa5111cb0e725fa6bd8937a9a90ec8830ac790dd468984c8",
    "finite-loss solve tu": "7f842dc8e63525b1fdb4c27b7a6d1880f0a9054252fb8c7851cda9d7ab334aa1",
    "finite-loss solve proper-coopetitive": "8e084376997ce5453098da30640ef60e905929c0f58ae50328261d7f8130c775",
    "finite-loss solve win-win": "bd681ece279ea0812a4484ed404d84234c22ec47d743190ff21936be55704d21",
    "finite-loss solve compromise:pareto": "f8028a68e623a83a620e815396c9a2ac5083e3dfaae030239d0b96c8eefd3b5b",
    "finite-loss solve compromise:nash_pareto": "58c8356536b0f497db754b1e52505e34990038b27aa1c192e65e7726d327b722",
    "finite-loss solve compromise:conservative_pareto": "81f3259e50eac7f1f60381a091ed7b439d307273a41875f54de1175d1c19e4fb",
    "finite-loss render": "376cb66f9017f972d1d5cc6fb40c396269f399fd9ac7c329334aa681961f2446",
    "coop1-gain analyze": "5d72069d60a008ea4667ca09da223b671e364dea5d7b6f4e8a29f6fa4628ea08",
    "coop1-gain solve ks": "d97d0d12d53a6a4e47e17c8e4dcabe2c0aa361e4ca4ebc2f745d248416b7e2df",
    "coop1-gain solve nash-bargaining": "8ff9b884de8470a5dbd374f03b7edf5f5d56640081f35b00f6d8cb8e387a7c30",
    "coop1-gain solve tu": "97b798da789d5e21c7176cc5d749ff45d899c1725044f3b8277fd3d134b972e1",
    "coop1-gain solve proper-coopetitive": "ffe123d292956c651e5c89d2b2ca0caeddaea3971c45fa8af3c02166edadf76d",
    "coop1-gain solve win-win": "a8d518b516630fa49c6be9225112eb21858006954ba189d1c8d1f04363c5e54e",
    "coop1-gain solve compromise:pareto": "8c769ac6c137196e278eb808d272c74baa9fdc1f416266d51c416b2fc9b3d8c9",
    "coop1-gain solve compromise:nash_pareto": "fbbb710bb18e7512edfe24d8da773266680df7420716a7652fe4519efe363902",
    "coop1-gain solve compromise:conservative_pareto": "a0762ad323de03981f8cb0a70187d6638e080be8ff37308e5ffed54d48db1d8f",
    "coop1-gain render": "6c611d0b5bc5c95183ad536bf1601c98d0b7bd7ee047b550f165020a884e98ee",
    "coop1-loss analyze": "a93fad135153f5400ff29544ef81957b7717b7b77272f4e3d113b1026ad10319",
    "coop1-loss solve ks": "b319263e4d76cdef10de6db52ab488beb30f9334c723b3614130e0d73ae46d40",
    "coop1-loss solve nash-bargaining": "42a3b551b8e6ba2ea52289b182bda79be1178b61f2292e22b45da2d8995bf4ac",
    "coop1-loss solve tu": "2464432b7972962163045f69967e87836ab2b214e881a0b16d1611ca64475f47",
    "coop1-loss solve proper-coopetitive": "83481f6abe921cf75f5552cd50570c2fea375f2b365a9b058783cf4f088c2042",
    "coop1-loss solve win-win": "eefe12e95f81fc8cee9acdb48078be4c7c95985220838dd232b0afc0d3c3fb0e",
    "coop1-loss solve compromise:pareto": "7db50ac59f48dce7ea403f2cf7625dd0c66dcf0e002c803a47e899b1e3251ce1",
    "coop1-loss solve compromise:nash_pareto": "d9be52c22378804d25e99d9ec0ea71ee0753d031d2c2b140561c794033ca1e75",
    "coop1-loss solve compromise:conservative_pareto": "c377247daa8e13c09f868058028d5287b0ffa13aef3b3b5a18ed06ba47b4625a",
    "coop1-loss render": "487bcb9ebbfd5d0e64e7966c5b724563d381f64469add718830a86f154c742ce",
    "coop2-gain analyze": "0a9b8b0a6bcb7c85b58ea97c951462ba0519f30fd1eec6a941af213cad36662b",
    "coop2-gain solve ks": "cd31ef79a3253d8a99d3d832be1b18d0bc4c1ea449a6d20f259d4f62cb402316",
    "coop2-gain solve nash-bargaining": "bdffd1d34490482e488d6c2037d5327d5b322575f180c9916163631af0f863c8",
    "coop2-gain solve tu": "d93621aa1e1a13cbda74855126b03f89a98286983241e52ae40c0fff42dea0f3",
    "coop2-gain solve proper-coopetitive": "7a6ee8c8cc59df0c97f9ef1daea2c5815be08f2292d594532484cfb5b5c6cadd",
    "coop2-gain solve win-win": "298a745d83a867e7354186394fdb11eafdb46f5ed2867406f3d03de38a791b87",
    "coop2-gain solve compromise:pareto": "bf1a437ac36e9f198b27db8eb2df9f499c055edee8472795987d24ada41d9c2a",
    "coop2-gain solve compromise:nash_pareto": "fbbb710bb18e7512edfe24d8da773266680df7420716a7652fe4519efe363902",
    "coop2-gain solve compromise:conservative_pareto": "9531fc6c4b2f8f5d72d39961dab2117579fabe3f60a54f99c1cdf59bac36a7f9",
    "coop2-gain render": "aaa00e0822c73932fd70673472a5d14b6ec3b07d4613692b46d82f2e1b51aa24",
    "coop2-loss analyze": "0968108851cf7f35c0494a26823016bc1653043b0896627ed8d71b4ee1136ea8",
    "coop2-loss solve ks": "9e082affca21e8e34270e5a0e170fffdc764840745e226e47bfb13338abfbe57",
    "coop2-loss solve nash-bargaining": "61eee8dc59721f9c112a2071d31bac56ae5182a6f90a684109fd59c8faa47e64",
    "coop2-loss solve tu": "6d9fa70ec909e2412c0fc26073004d07d056de2f242a7e881719aef1d13d6cb5",
    "coop2-loss solve proper-coopetitive": "0151df503cf0777fefdf6b38965dea5d39b3a219bb43290adefbb092a5db65ae",
    "coop2-loss solve win-win": "6dedb8284641ee165b054d4539fd0a1fcfeb1acb0132a1d86be388035ca56c55",
    "coop2-loss solve compromise:pareto": "40e08c739575923e1fb9987c2cd9df3c6cec8e182424036031a630af77f2e3df",
    "coop2-loss solve compromise:nash_pareto": "9296bfd0c07f1a7cb0eb1bee43eed4cd83a34c4689479b24af2b56e06be60d41",
    "coop2-loss solve compromise:conservative_pareto": "c3b8dba5d007d7098de1e5abd7bafe95892af7035130dbf136d4c39628d9e89b",
    "coop2-loss render": "731672a065b4e8f13a0b918611703b61d5b96d5a497b9eaec8482f7cc94927ed",
    "demo-negated-gain analyze": "5c44cf97cf134dff97f93367b7634f7af3aefcc86f09f82ef720c356e9a70b83",
    "demo-negated-gain solve ks": "02d544e654f2ad6aa5c10f276a96bb0e30610b08448c9ff74a35f943752fa5dc",
    "demo-negated-gain solve nash-bargaining": "d5d15686833712a870f21ed848896b2fff906804b8c2585a20027b129e0924a4",
    "demo-negated-gain solve tu": "adb6038623d88060dafd352c7c25cd87d55e01d7a6d35448f2fff752a20616c8",
    "demo-negated-gain solve proper-coopetitive": "fbfcb0c26e4037482f85e65c7a39006a114a3df1564f3215ad58595493e9ae7b",
    "demo-negated-gain solve win-win": "3bfdcfa454d384c743fd03605b974020da8212bf84ea4a94dade5ccd3cb2c09d",
    "demo-negated-gain solve compromise:pareto": "ac9f3070114b598e945dd7d2c50fed68e8e11cb4bbd33c60c1fa73e8ea19c3d5",
    "demo-negated-gain solve compromise:nash_pareto": "dadeee4dac926a20c2b17a33ba7cdf5acb42d5fcf818f0ef3b8d56c9dcebf88e",
    "demo-negated-gain solve compromise:conservative_pareto": "1ea8e45571f0e148167b747a2bd765af9442df85ccc45752be2ee912c61ae842",
    "demo-negated-gain render": "7b139e75fc77f61b60541e5942775387683d94960303a8a33e7ef5d1d3990255",
}


def test_cli_outputs_match_golden_hashes(tmp_path):
    got = all_digests(tmp_path)
    assert sorted(got) == sorted(GOLDEN_SHA256)
    changed = [key for key in got if got[key] != GOLDEN_SHA256[key]]
    assert changed == []
