"""Golden transcripts: the exact exit code, stdout and stderr of every
command and flag set on seven models, with colour off and on.

Each flag set has one SHA-256 over its transcripts on all the models, so
a change to any byte of any command's output fails the flag set that
shows it.  To print the pins of the current code::

    PYTHONPATH=src:tests python tests/test_cli_transcripts.py
"""

import gc
import hashlib
import pathlib
import shutil

import pytest

from sbcheck import cli
from sbcheck.ingest import bundled_model_path

ARTIFACTS = pathlib.Path(__file__).resolve().parent.parent / "acceptance_artifacts"
# the livelock gadgets on which the two methods disagree
GADGETS = ["discrepancy_seed304_weak.sbs", "discrepancy_seed395_strong.sbs",
           "discrepancy_seed586_weak.sbs"]
# a constraint no behaviour state satisfies: every command but validate refuses it
ILL_FORMED = '''system "ill"

observables {
  x: bool;
}

behaviour {
  state q0 {x = true} init;
  state q1 {x = false};
  q0 -> q1;
  q1 -> q0;
}

structure {
  state r0: "x" init;
  state r1: "x && !x";
  r0 -["true"]-> r1;
}
'''
SYNTAX_ERROR = 'system "broken" junk\n'
MODELS = ["predator_s0.sbs", "predator_s1.sbs", *GADGETS, "ill.sbs", "broken.sbs"]

FLAG_SETS = [
    ("validate",),
    ("validate", "--json"),
    ("flatten",),
    ("flatten", "--json"),
    ("flatten", "--dot"),
    ("adapt",),
    ("adapt", "--json"),
    ("adapt", "--weak"),
    ("adapt", "--strong", "--json"),
    ("adapt", "--witness"),
    ("adapt", "--both", "--witness", "--json"),
    ("adapt", "--method", "relational"),
    ("adapt", "--method", "relational", "--witness", "--json"),
    ("adapt", "--method", "ctl", "--witness"),
    ("adapt", "--method", "ctl", "--weak", "--json"),
    ("equiv",),
    ("equiv", "--strong"),
    ("equiv", "--json"),
    ("ctl", "--formula", "AG(adapting -> AF steady)"),
    ("ctl", "--formula", "EF adapting", "--json"),
    ("ctl", "--formula", "EF adapting"),
    ("ctl", "--formula", "AG steady"),
    ("ctl", "--formula", "AG(x ->"),
    ("simulate",),
    ("simulate", "--steps", "25", "--seed", "3"),
    ("simulate", "--seed", "7", "--json"),
    ("simulate", "--steps", "-1"),
]

PINS = {
    "validate": "b45b2eb7f4a00ba892a5b292955a16e4e9f84ed2bcaeecbadd313a21d649e778",
    "validate --json": "7cb98beb8e90af0f061ff4cb5aa9129d1e78f4c5e71fd098451ecd79186a1ca0",
    "flatten": "d8ff274194c4cf76190042b2aff7cfac5dcdc1a2c18375e65029557fbb0876f7",
    "flatten --json": "fc3436a7e421d540588170b4f0410a0eb2fb804931b05b1a8ce3d65db7bb2b8a",
    "flatten --dot": "49475c67003b0427d73dfc06b39ed6392be637f2d163572b741d152e52ecddab",
    "adapt": "9fb7fca29fedacf42cea24a94e4d1211fbb848f9ed08876d644680430851631c",
    "adapt --json": "c9e900d16a413a6388b8e36ed5f97d6fc70d014fc094ed422800125e7d24d563",
    "adapt --weak": "9a19bba4b3076e96da1d33de020c28dbf45ed1506eec78c14fbf9e61d5669750",
    "adapt --strong --json": "037db7a4dc39ef4846eafad4712444766b3d17fd847d80aa333016f736b07efe",
    "adapt --witness": "d49f322d05ee45b3ba6afe1a62f864975dcb1831d2f260026597d886918f59c6",
    "adapt --both --witness --json": "f1cfa68380695ab8f3176a8eed6d409396bf75cdc94ea3324eb4d0c9873fdba0",
    "adapt --method relational": "5ea6be1a51d6cb58110599b006bc5023670eefbe22ca439d9daca87ac185f2dd",
    "adapt --method relational --witness --json": "206bea0e3ee68524e6d1aebd88e3551c3abb406592e19e7ce036f702ba37d55d",
    "adapt --method ctl --witness": "abbb3880bb2fcdcca5ca7de22363041b790a15df15e23798fcfc3e6862f0b8ff",
    "adapt --method ctl --weak --json": "33945302f52fd8c6e028d36a420ee898f3d32f9fbf6527ebd0f8e328a5c7bbb8",
    "equiv": "1d681af371a6950f3c9625eaea76c59cf48c19709fb61e7c41995594551c1e6b",
    "equiv --strong": "1118f326724c02c75f04063ca50f258c20a02880f7131970d953288830260a42",
    "equiv --json": "36a1fd0dff1c06abdf5fab5e78e181f30af777af75ce5e8e84809676c9df3a96",
    "ctl --formula AG(adapting -> AF steady)": "5c2fa58cb8c390518dadb9f63fc3ecb2ad7b905d25562b44909a2e9692861201",
    "ctl --formula EF adapting --json": "31c74b32ebcb5cada2254799b8f81edf7a278fe1b2ab1857da08e654ce7debe7",
    "ctl --formula EF adapting": "e72b3e8003c06fb6f8f3479df1b5910766d43223cbc220e9e02643ef8391cc73",
    "ctl --formula AG steady": "4c9090a2dc89ba9bc00a0a438247845d91453694cc2e9450da1d8f1bdecd4570",
    "ctl --formula AG(x ->": "c8a67b071bfc62cc58686bad5d7712b26638cd94034cb1aa00625c3cc9f32baf",
    "simulate": "1b78b483ff30e439a328b38e972ea4c941a06204f3d53adacbd9712ec42d062f",
    "simulate --steps 25 --seed 3": "67bdaeb7a03aed65ac47e8755a0f97212d6c32cef234ecf1eb0138cc492d77ad",
    "simulate --seed 7 --json": "5e4a08b91168d17e41e5068162e1e00d6160954450e624ca29eed8a0af9c540d",
    "simulate --steps -1": "20efa03107a2686470e38914d17ddb970f9f9cec6696c7ffb86ef1008d02ef11",
}


def _write_models(directory):
    for name in ("predator_s0", "predator_s1"):
        shutil.copy(bundled_model_path(name), directory / f"{name}.sbs")
    for name in GADGETS:
        shutil.copy(ARTIFACTS / name, directory / name)
    (directory / "ill.sbs").write_text(ILL_FORMED)
    (directory / "broken.sbs").write_text(SYNTAX_ERROR)


def transcript_digest(flags, run):
    """The SHA-256 of ``run(argv, color)``'s ``(code, stdout, stderr)`` for
    ``flags`` on every model, with colour off and on."""
    digest = hashlib.sha256()
    for model in MODELS:
        argv = [flags[0], model, *flags[1:]]
        for color in ("0", "1"):
            code, out, err = run(argv, color)
            digest.update(repr((model, color, code, out, err)).encode())
    return digest.hexdigest()


def _in_process(monkeypatch, capsys):
    def run(argv, color):
        monkeypatch.setenv("SBCHECK_COLOR", color)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err
    return run


@pytest.mark.parametrize("flags", FLAG_SETS, ids=[" ".join(f) for f in FLAG_SETS])
def test_every_command_prints_its_pinned_transcript(flags, tmp_path, monkeypatch, capsys):
    _write_models(tmp_path)
    monkeypatch.chdir(tmp_path)  # error lines name the model by the path given
    capsys.readouterr()
    assert transcript_digest(flags, _in_process(monkeypatch, capsys)) == PINS[" ".join(flags)]


@pytest.mark.parametrize("flags", FLAG_SETS, ids=[" ".join(f) for f in FLAG_SETS])
def test_no_command_leaves_cyclic_garbage(flags, tmp_path, monkeypatch, capsys):
    _write_models(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SBCHECK_COLOR", "0")
    left = {}
    for model in MODELS:
        argv = [flags[0], model, *flags[1:]]
        cli.main(argv)  # once first, so that one-time caches are filled
        gc.collect()
        gc.disable()
        try:
            cli.main(argv)
            left[model] = gc.collect()
        finally:
            gc.enable()
    capsys.readouterr()
    assert left == dict.fromkeys(MODELS, 0)


def test_every_flag_set_has_a_pin():
    assert list(PINS) == [" ".join(f) for f in FLAG_SETS]


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    def run(argv, color):
        os.environ["SBCHECK_COLOR"] = color
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    with tempfile.TemporaryDirectory() as directory:
        _write_models(pathlib.Path(directory))
        os.chdir(directory)
        for flags in FLAG_SETS:
            print(f'    "{" ".join(flags)}": "{transcript_digest(flags, run)}",')
