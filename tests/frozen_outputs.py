"""Every run of the CLI and the scripts the tests pin, each written once, and its runners.

An entry names the steps of one run. A step is an argv, its stdin (a JSON
payload, ``PIPE`` for the previous step's output, or None) and the name of
its record in ``meaning_record.json``, if it has one. The argv runs
``cocircular``, or the script it starts with where that is a path under
``scripts/``. ``replay`` returns each step's text: its stdout, or the file
its ``--output`` names. What an entry pins is the SHA-256 of the texts
that no later step reads. ``test_cli.py::test_frozen_output`` replays
every entry in process, by ``cli.main(argv)`` or the script's
``main(argv[1:])``, and ``test_frozen_output_in_a_fresh_process`` replays
each ``fresh`` one with one ``python -W error`` per step. Every step must
exit 0 with nothing on stderr.

A digest says that a byte moved, not what moved with it: every step that
runs minimize, exclude or verify on masses that are not all equal names a
record, and ``test_meaning.py`` checks what its output says against it. To
add an entry, write its steps, naming the record of each such step (a new
name, or one whose steps read the same input); run ``test_frozen_output``
for the digest its failure prints, and ``PYTHONPATH=src:tests python
tests/test_meaning.py``, which appends each record the table names and the
file lacks. A change that moves an output's bytes edits that entry's digest
and says why in CHANGES.md. The solves' entries hold for numpy's bundled
OpenBLAS (0.3.31), at any thread count, as the Newton loop runs its
LAPACK calls on one thread; another LAPACK may round their last bits
differently.

The five literals below are compared byte for byte; an entry that pins one
of them takes its digest from the literal, and ``test_frozen_output``
compares its text with the literal before the digest, so that a moved
byte shows in pytest's diff.
"""

import contextlib
import hashlib
import io
import json
import runpy
import sys
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np

from cocircular import cli
from conftest import certify_masses, run_python

ROOT = Path(__file__).resolve().parent.parent

MINIMIZE_112 = (
    '{"alpha":1,"k":16,"masses":[1,1,2],'
    '"angles":[2.1722178298114287,4.110967477368157,6.2831853071795862],'
    '"f_value":3.8196204817780002,"grad_norm":2.3132280137996354e-11,'
    '"iterations":3,"converged":true}\n'
)

SCAN_CSV = (
    "n,alpha,g_value,threshold,holds\n"
    "3,1,0.76980035891950116,1.25,true\n"
    "4,1,0.95710678118654757,1.25,true\n"
    "5,1,1.1011055363769386,1.25,true\n"
    "6,1,1.2182335127930841,1.25,true\n"
)

SPECTRUM_4 = "[2.4142135623730949,-0.75,-0.91421356237309515,-0.75]\n"

ALPHA_STAR_6 = (
    '{"n":6,"alpha_star":1.1110131188252126,"g_value":1.2777532797064375,'
    '"threshold":1.2777532797063031,"residual":1.3433698597964394e-13,'
    '"tolerance":9.9999999999999998e-13}\n'
)

# region_map.py's table as it printed when each n's edge came from a scan
# of every cell: n = 8, 9 hold up to the first alpha, n >= 10 never hold
REGION_MAP_TABLE = """\
  n   alpha_star    g(n,a*)  holds up to
  3  12.79269752   4.198174        2.000
  4   3.31972236   1.829931        2.000
  5   1.70745281   1.426863        1.500
  6   1.11101312   1.277753        1.000
  7   0.81064311   1.202661        0.750
  8   0.63260716   1.158152        0.500
  9   0.51590892   1.128977        0.500
 10   0.43400480   1.108501        never
 11   0.37360588   1.093401        never
 12   0.32736576   1.081841        never
 13   0.29091119   1.072728        never
 14   0.26148487   1.065371        never
"""

PIPE = object()  # a step's stdin that is the previous step's output


class Step(NamedTuple):
    argv: list
    stdin: object = None
    record: str = None


class Frozen(NamedTuple):
    steps: tuple
    digest: str
    why: str
    fresh: bool = False


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# each literal by its digest
LITERALS = {sha256(text): text for text in (MINIMIZE_112, SCAN_CSV, SPECTRUM_4, ALPHA_STAR_6,
                                            REGION_MAP_TABLE)}


def replay(steps, run, cwd):
    """Each step's text: its stdout, or the file under cwd its --output names.

    run(argv, stdin) returns the exit code, stdout and stderr of one step.
    """
    texts = []
    for step in steps:
        code, out, err = run(step.argv, texts[-1] if step.stdin is PIPE else step.stdin)
        assert (code, err) == (0, ""), (step.argv, code, err)
        if "--output" in step.argv:
            assert out == ""
            out = (cwd / step.argv[step.argv.index("--output") + 1]).read_bytes().decode()
        texts.append(out)
    return texts


def pinned(steps, texts):
    """The text an entry pins: the text of every step that no later step reads."""
    return "".join(text for text, after in zip(texts, [*steps[1:], None])
                   if after is None or after.stdin is not PIPE)


def _script(argv):
    """The script a step runs, or None where it runs ``cocircular``."""
    return ROOT / argv[0] if argv[0].startswith("scripts/") else None


def run_in_process(argv, stdin):
    """The step in this process on the text stdin: (code, stdout, stderr)."""
    script = _script(argv)
    main, args = (runpy.run_path(str(script))["main"], argv[1:]) if script else (cli.main, argv)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin or "")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def run_fresh(argv, stdin, cwd):
    """The step in a new interpreter under cwd: (code, stdout, stderr)."""
    script = _script(argv)
    out = run_python(*([str(script), *argv[1:]] if script else ["-m", "cocircular", *argv]),
                     stdin=stdin, cwd=cwd)
    return out.returncode, out.stdout, out.stderr


def _cli(*argv, stdin=None, record=None):
    return (Step(list(argv), stdin, record),)


def _payload(alpha, masses):
    return json.dumps({"alpha": alpha, "masses": np.asarray(masses).tolist()})


def _exclude(masses, name, alphas=(0.5, 1.0, 3.0)):
    """One exclude per alpha, in turn; the record of the one at alpha is name-alpha."""
    return tuple(Step(["exclude", "--input", "-"], _payload(a, masses), f"{name}-{a}")
                 for a in alphas)


def _minimize_verify(payload, record=None):
    return (Step(["minimize", "--input", "-"], payload, record),
            Step(["verify", "--input", "-"], PIPE, record))


def _uniform(alpha, n=256):
    """The certify benchmark's uniform masses, U(0.5, 2) drawn with seed n."""
    return _payload(alpha, certify_masses("uniform", n))


def _one_heavy_256(alpha):
    return _exclude(certify_masses("one-heavy", 256, ratio=300.0), "one-heavy-256", (alpha,))


# 12 alphas drawn U(0.1, 3) with seed 300, as the benchmark's scan passes them
SCAN_ALPHAS_12 = [
    "2.044073257139385", "1.7237885623897595", "1.2013829362482749",
    "0.8301768155215001", "2.2845133044547388", "2.510597471782001",
    "1.485660665724005", "2.1155613868961036", "1.5946534673881574",
    "1.712657556493213", "0.9686363977893567", "1.425057613293522",
]
# 12 alphas that hold 1..4, whose terms are integer powers (1/s)**alpha
SCAN_ALPHAS_MIXED = ["0.25", "0.5", "1", "1.5", "2", "2.25", "2.7", "3", "3.14159", "4",
                     "5", "7.5"]
# shifts by 3, 4 and 6 fix these masses, and reflections fix the last two
SHIFT_FIXED = {3: [1, 2, 3] * 4, 4: [1, 2, 2, 1] * 6, 6: [1, 2, 3, 3, 2, 1] * 4}

FROZEN = {
    # The benchmark's solve inputs, taken again, on two OpenBLAS threads,
    # when the default start became minimizer._mass_start and when the
    # Newton step's Hessian took cos(du/2)**2 from the chord, and again when
    # the Newton step became LAPACK's Cholesky solve on one OpenBLAS thread
    # (below, "the Cholesky step").
    "minimize-uniform-256-0.5": Frozen(
        _cli("minimize", "--input", "-", stdin=_uniform(0.5), record="uniform-256-0.5"),
        "a17134695f766a1e432923d7e06f4009bc6c8d660a9d11bd8942527375a80cb8",
        "a Newton solve at n = 256 whose radial powers take np.power"),
    "minimize-uniform-256-1": Frozen(
        _cli("minimize", "--input", "-", stdin=_uniform(1.0), record="uniform-256-1.0"),
        "f393923acbf6e0ca3712e81ff85e0d664e0ed7f59259c9d9744ce996c51415a4",
        "a Newton solve at n = 256 on unequal masses"),
    "minimize-uniform-256-3": Frozen(
        _cli("minimize", "--input", "-", stdin=_uniform(3.0), record="uniform-256-3.0"),
        "4a07889552efcdb1223e8b5c17a389a4f03b99beda00dbe48fe04cadf36f891d",
        "a Newton solve at n = 256 whose radial powers take a multiply chain"),
    "exclude-uniform-256-0.5": Frozen(
        _exclude(certify_masses("uniform", 256), "uniform-256", (0.5,)),
        "2401af2b1c446229b5d69256e32ab7819397f80dc44378d2d53068aee1563c45",
        "the group scan's 2n image rows at n = 256, where a gemv may split"),
    "exclude-uniform-256-1": Frozen(
        _exclude(certify_masses("uniform", 256), "uniform-256", (1.0,)),
        "d42ce5655cc7214b440a1855456af947c78e37a9b18d86313319bc6c97d75bf9",
        "W read off the frame the solve leaves, so exclude builds no chords",
        fresh=True),
    "exclude-uniform-256-3": Frozen(
        _exclude(certify_masses("uniform", 256), "uniform-256", (3.0,)),
        "8599516a3bb0576a6951392c011907af3cb8b0bcae7ff111c7b5df7bc4365eeb",
        "the group scan's 2n image rows at n = 256 and alpha = 3"),

    # 255 unit masses and one of 300, first taken while the group scan ran
    # one gemv per distinct image in a Python loop, again from
    # minimizer._mass_start, with the Hessian from the chord and with the
    # Cholesky step.
    "exclude-one-heavy-256-0.5": Frozen(
        _one_heavy_256(0.5),
        "ae7359aaaaf20cd8257aa17f88c11eace7762a28dbff8966382bf418419c6575",
        "the group scan's repeated images at n = 256"),
    "exclude-one-heavy-256-1": Frozen(
        _one_heavy_256(1.0),
        "a132443e0ca1cee98a2e225671177f276516ce1ceba3d3ffdbd2ac70f3eea822",
        "the swap check's verify_cc on the solve's frame at n = 256",
        fresh=True),
    "exclude-one-heavy-256-3": Frozen(
        _one_heavy_256(3.0),
        "126ac48dcbfbe9fefc00b793c7c51c1a85d75bb084ae730515722e4361160de8",
        "the group scan's repeated images at n = 256 and alpha = 3"),

    # verify on the n = 256 minimize output, first taken while the mirror
    # wrote through a mask, again from minimizer._mass_start, with the
    # Hessian from the chord and with the Cholesky step. In process verify reads the minimizer's
    # frame; in a fresh process it builds its own chords.
    "verify-uniform-256-0.5": Frozen(
        _minimize_verify(_uniform(0.5), "uniform-256-0.5"),
        "33b38d6ae9645b1817f8544defc42a972b8900b3e98163192bf106fd4dde4d98",
        "verify's residuals at n = 256 where the radial powers take np.power",
        fresh=True),
    "verify-uniform-256-1": Frozen(
        _minimize_verify(_uniform(1.0), "uniform-256-1.0"),
        "af523c2ce8daa317e79fcb99788e8a908ce4cc3be926ac05cf64d5cb74691753",
        "verify's residuals at n = 256, the JSON writer's report shape",
        fresh=True),
    "verify-uniform-256-3": Frozen(
        _minimize_verify(_uniform(3.0), "uniform-256-3.0"),
        "c00c884867a080c9f2c3e0967a62041c349c331016a09638cb5ae8e383d764ba",
        "verify's residuals at n = 256 where the radial powers multiply",
        fresh=True),
    "verify-equal-6": Frozen(
        _minimize_verify(_payload(1.0, [1, 1, 1, 1, 1, 1])),
        "cddc4b2aafcf61c47ade97e8e3c9504434deaf3eed91c2eeb9d5d8b826239c14",
        "minimize | verify at six equal masses",
        fresh=True),

    # Taken while every value was still written by a recursive walk with
    # one json.dumps per dict key; exclude-112 and the --output file again
    # from minimizer._mass_start, and the file again with the Hessian from
    # the chord and with the Cholesky step.
    "exclude-112": Frozen(
        _cli("exclude", "--input", "-", stdin=_payload(1.0, [1.0, 1.0, 2.0]), record="112"),
        "4d5d9bac6ecfe8e81c32de82526b0a0b994a3e7c9f28f7d369cbe22c8efd11b1",
        "four tied group margins one ulp apart; the witness is the first of the two largest",
        fresh=True),
    # Taken when the meaning checks came to read their inputs from this table.
    "exclude-11112": Frozen(
        _cli("exclude", "--input", "-", stdin=_payload(1.0, [1.0, 1.0, 1.0, 1.0, 2.0]),
             record="11112"),
        "d7865f17b45c3c633a2feb33c03f75dfd44ccf55385d583d742fe6581999c11e",
        "twelve certificates, tied in pairs by the reflection that fixes the masses"),
    "exclude-equal-4": Frozen(
        _cli("exclude", "--input", "-", stdin=_payload(1.0, [1.0] * 4)),
        "0158ca49c269fa2476515503b591cc08e97c51849354c8bc6f7f35e7e0838b05",
        "null witnesses and empty certificate lists"),
    "scan-40-json": Frozen(
        _cli("scan", "--n-min", "3", "--n-max", "40", "--alpha", "0.5", "1", "3",
             "--format", "json"),
        "755bdaaaaabbc6b32bb0f2164361ec9d5974faf8e5b1910f061191103bf474a2",
        "scan's JSON cells"),
    "minimize-uniform-64-0.5-output": Frozen(
        _cli("minimize", "--input", "-", "--output", "result.json",
             stdin=_uniform(0.5, 64), record="uniform-64-0.5"),
        "ae1c0d8493bf6d29fb663fb821c4281e056dcbf9a7e2f07a2ae6a1b75fba6b04",
        "the file minimize --output writes"),

    # Taken while the group scan still found repeated images by hashing the
    # rows, and again with the Hessian from the chord and with the Cholesky
    # step.
    "exclude-shift-fixed": Frozen(
        sum((_exclude(m, f"shift-{s}") for s, m in SHIFT_FIXED.items()), ()),
        "2c2b3371930fb6a26fd1afecc62178305e9c8eaaa023d681ac9cef4f30c85ad4",
        "the group scan takes one row per coset of the masses' stabilizer",
        fresh=True),

    # Taken while the scan still built one RegionCell per grid cell and the
    # sine tables came from math.sin.
    "scan-300-csv": Frozen(
        _cli("scan", "--n-min", "3", "--n-max", "300", "--alpha", *SCAN_ALPHAS_12),
        "d30de3ebf881c3f24340de38e570bebed8b9d66c5fa615e205dc7f34a1991725",
        "the benchmark's scan"),
    "scan-300-json": Frozen(
        _cli("scan", "--n-min", "3", "--n-max", "300", "--alpha", *SCAN_ALPHAS_12,
             "--format", "json"),
        "a84beb3b93438306ef58f73dc6e0655405a2a833dce30f336d3cd15cddfd8c5a",
        "the benchmark's scan as JSON"),
    "scan-1000-csv": Frozen(
        _cli("scan", "--n-min", "3", "--n-max", "1000",
             "--alpha", "0.5", "1", "2", "2.7", "3", "4"),
        "b6f84334081447fd8d2f1b0aca630f33d8accaa42c2380dc75fc632e96a55708",
        "g over a wide n range"),
    "alpha-star-500": Frozen(
        _cli("alpha-star", "--n", "500"),
        "8ac62385370e2fcd9a0d3759305315272d448e387ede548317db4ee2288414d5",
        "bounds on g settle all but a few steps, which run the exact kernel",
        fresh=True),
    # Taken while every padded sine of a grid block had a pow of its own.
    "scan-300-mixed-csv": Frozen(
        _cli("scan", "--n-min", "3", "--n-max", "300", "--alpha", *SCAN_ALPHAS_MIXED),
        "80d151de977c39f4c8a4993fc0624b1b444b4b266664bdc41d76e474aa5dc9ba",
        "the sines of n and n/2 from one index, from an empty block cache",
        fresh=True),
    "scan-1000-blocks-csv": Frozen(
        _cli("scan", "--n-min", "3", "--n-max", "1000", "--alpha", "0.5", "1", "2.5"),
        "be73f814f3bd9ad8ebc363356bc402f0e1156749d19719fecca27de5be9abf0f",
        "a grid of several blocks"),
    "scan-20-csv-output": Frozen(
        _cli("scan", "--n-min", "3", "--n-max", "20", "--alpha", "0.5", "1", "2",
             "--output", "region.csv"),
        "c92ff11d2159df5ddc0cb1bbd719345376695fe53491cd7a1eae268248acbd8b",
        "the file scan --output writes, as it was when every g came from the scalar kernel",
        fresh=True),

    # The literals' runs, each first pinned by a test of its own.
    "minimize-112": Frozen(
        _cli("minimize", "--input", "-", stdin=_payload(1.0, [1.0, 1.0, 2.0]), record="112"),
        sha256(MINIMIZE_112),
        "a three-body solve, MINIMIZE_112"),
    "scan-6-csv": Frozen(
        _cli("scan", "--n-min", "3", "--n-max", "6", "--alpha", "1"),
        sha256(SCAN_CSV),
        "the Newtonian n-gon's g against 1 + alpha/4 at n = 3..6, SCAN_CSV"),
    # SPECTRUM_4 taken again from the real FFT, where lambda_1 and lambda_3
    # come out exactly -0.75.
    "spectrum-4-1": Frozen(
        _cli("spectrum", "--n", "4", "--alpha", "1"),
        sha256(SPECTRUM_4),
        "the eigenvalues of W at the square, SPECTRUM_4",
        fresh=True),
    # Taken while every bisection step still evaluated g with the scalar
    # kernel, as are the alpha-star rows below.
    "alpha-star-6": Frozen(
        _cli("alpha-star", "--n", "6"),
        sha256(ALPHA_STAR_6),
        "the corollary's n = 6 line, ALPHA_STAR_6",
        fresh=True),
    "alpha-star-sweep": Frozen(
        tuple(Step(["alpha-star", "--n", str(n)]) for n in range(3, 1001)),
        "8cae5c7c98cbf4e47c3eadc68a58aae309239a798e94a682dcb70c16f5847f8d",
        "alpha* at n = 3..1000, one call after another"),

    # The scripts' tables: the survey's of 12 families, taken again from
    # minimizer._mass_start, and the region map's, REGION_MAP_TABLE.
    "survey-4-8": Frozen(
        (Step(["scripts/exclusion_survey.py", "--n-min", "4", "--n-max", "8"]),),
        "fc3366928def876061e9cb22195d211a0b64ee5d1764e259f2e0ef284bbdce81",
        "the survey's witnesses, margins and radial spreads",
        fresh=True),
    "region-map-3-14": Frozen(
        (Step(["scripts/region_map.py", "--n-min", "3", "--n-max", "14", "--alpha-min", "0.5",
               "--alpha-max", "2.0", "--alpha-steps", "7"]),),
        sha256(REGION_MAP_TABLE),
        "the corollary's critical exponents and region edges, REGION_MAP_TABLE",
        fresh=True),
}

# exclude at alpha = 0.5, 1 and 3 in turn on the certify benchmark's inputs,
# first taken while every line-search trial still built a validated
# AngleConfiguration and the scans tested and labelled one image row at a
# time, again from minimizer._mass_start, with the Hessian from the chord
# (all but two-heavy 26, graded 9 and uniform 9 moved) and with the Cholesky
# step (all but one-heavy 9, two-heavy 13 and two-heavy 40). At n = 40 only
# the identity fixes the uniform masses, so the group scan takes all 2n image
# rows, and a reflection fixes the one-heavy ones, so it takes one row per
# shift: those two run in fresh processes too.
FROZEN.update({
    f"exclude-{family}-{n}": Frozen(
        _exclude(certify_masses(family, n), f"{family}-{n}"), digest,
        f"certificates, witnesses, margins and flags of {family} masses at n = {n}",
        fresh=n == 40 and family in ("one-heavy", "uniform"))
    for (family, n), digest in {
        ("one-heavy", 9): "7bc3b17daaa8e15cabb2c0dfaf7f6017728b04432c633fb8e89387824eb50066",
        ("one-heavy", 13): "3146f4dc00f7f5b952c6a2c0fe137154b86bdcca787e92f588ff816047100a2f",
        ("one-heavy", 26): "d607ff8c6cbc7c382232fc89ce9ec6337ba6d3c8a9b7fc6468a7dd96aa0c2b87",
        ("one-heavy", 40): "ae61de54fb31681aa1f7198a9cb1092dbf62e594c8d29aa020eabb7cfd7ca26d",
        ("two-heavy", 9): "d8d2a0076f9bf0dd2fa06a71623523d95aee64e235e459edc3449ca9f060fb58",
        ("two-heavy", 13): "46b4f5dd77a9751d2f5fe548b81c5911102854d63541f0ac39a610f2477d971a",
        ("two-heavy", 26): "0671df81b1a282d458a18caad534f0658f9ab4b2326415885c025c29e52ae595",
        ("two-heavy", 40): "ad859088467fa8aac44a54abe4e906aed37846df0250f7b93294897632138ded",
        ("graded", 9): "f5955ebd303fd6e68f461db33ca47d192979c790e7f25eb36937cdbc6442c566",
        ("graded", 13): "a886361d6bafb6b8ab26d5ed4301e2a19492a14b4d473a30b7f0568446b327b4",
        ("graded", 26): "3c732bbd8ed6c39e92de9bd8e655cc042bee86638c0e69927abebe7638ae23e6",
        ("graded", 40): "3c8f1a1be84328773019dd01961d89c5238ef87d0eb3510e91dc4b430e01ebd2",
        ("uniform", 9): "6f3f3f7ed3f46a162b08270a3bbf7cf7995d528b1f6572f8e74e5d043896eef2",
        ("uniform", 13): "70cdbf969235dae04adf0e1048b613c1a07f2639be63065929c2399ce9e8562f",
        ("uniform", 26): "f078a34d92d2f069fc9251bce5fa362e658298a3e02f7194564884df88d222b9",
        ("uniform", 40): "e480e49b84235e6363d0881487a6bb0e1046d8c19bd202eaeba1023c1ac3205b",
    }.items()})

# Taken again when the spectrum became one real FFT of W's first row, with
# numpy 2.4.6's pocketfft (another FFT library may round the last bits
# differently); at alpha = 2.9 the powers take np.power.
FROZEN.update({
    f"spectrum-{n}-{alpha}": Frozen(
        _cli("spectrum", "--n", str(n), "--alpha", alpha), digest,
        f"the eigenvalues of W at the {n}-gon, alpha = {alpha}")
    for (n, alpha), digest in {
        (5, "1"): "93b8b5b4ddfdf8795d63d44cf441983a509bf92b0321e740ed07e880468ee67c",
        (256, "1"): "efc60ae0615f8937fe0567794cba57e21d874b12d1bd73f1b40def2983322fec",
        (512, "1"): "d4330c9bb618f83e7a47542236fd4e47d47679bcebc2faef84825a18bbcd499f",
        (5, "2.9"): "5d798483f9203ef087b5d1e759a21f68c3358d01b3088115b2d5f99b8ee907d6",
        (256, "2.9"): "bf2d3c044b8196421d53905b41cb190c27f80da46d1e09cd1923e7cb252b622c",
        (512, "2.9"): "3b0b8086a1cadd50b46b52bd71e11958993fcee2d42fdfe5ae896aeec242e732",
    }.items()})

# alpha-star at the default tol (n = 3, 10 and 1000 taken with the scan's
# digests, while the sine tables came from math.sin) and at tols 1e-15, 1e-6
# and 0; a zero tol is met only where the residual comes out exactly 0.
FROZEN.update({
    f"alpha-star-{n}" + (f"-tol-{tol}" if tol else ""): Frozen(
        _cli("alpha-star", "--n", str(n), *(["--tol", tol] if tol else [])), digest,
        f"alpha* and its residual at n = {n}" + (f" to tol {tol}" if tol else ""))
    for (n, tol), digest in {
        (3, ""): "f95fe89b1c5c7e4a35d3213a30d3333c2ef0f0cb40bdd71e9aaa9fe18ea928d0",
        (10, ""): "6e4c77f4b00131db3943b06dea24f9501604d153c8e39dec32611893276d7e0d",
        (1000, ""): "b993d101885291bf898ff980e9e2afad7080eca2def0f144d2eca18c61dae941",
        (2000, ""): "6136f2541a214f0a5c219d2b3559bdf63521e733a721405ad1139e81f7322116",
        (4000, ""): "1962885c711f126f209f59ebeba1c8fa0f06088de32e048fa26c251dd14b8bfc",
        (10000, ""): "82ae406bff267dbeb855209e1b5b6a142366bedcbb8bfcddb290be68599b5593",
        (6, "1e-15"): "ddd94c4797033534f08159dbe6f10a286452a95b90932af1c0ea35cbf83cbe5d",
        (500, "1e-15"): "ebee08fd055c6a1fb63f443baf696906ea339374e8323c40644daac02539e61f",
        (2000, "1e-15"): "ea90c52e6d15f3b3218cf762d85995f2db942802721c2ab89a617c4a622a5dd8",
        (4000, "1e-15"): "6e0b192867764e5925190e047f369f6e37651afef7a012d313bbab2c4abe3d85",
        (10000, "1e-15"): "a8da2bea92bff0f87bb0207d113b9c4d43c5a936794458814094cb6f0d9cdd1c",
        (6, "1e-6"): "e6b3526c5f80d52b287118e9b75eaed5695207b8a52662a537d12a4e3564e9ea",
        (500, "1e-6"): "431b9578b894d2dc59ed7eab7a0bd849e8ffed5e8c3071e91352da266c241baa",
        (2000, "1e-6"): "ee29c49be2a40c4798a5ff0364cf140cfcf4b143bcd37a0a154bf53be306f827",
        (4000, "1e-6"): "204264145eefb532e63f62e3f865832967dc0ba2dbc03b1a01735997cdea7095",
        (10000, "1e-6"): "c0403901bae872c3db5332eb2d3340c3fbe1d8d75ecec53311020512ec35d291",
        (6, "0"): "2b090c43d053f5006576d084fa223ce628db4a07b4f0f09ab6eb63c499535b99",
        (500, "0"): "e44ce3731d0c663420e07f8a5a7ee3587c95e58b521aca1838914b1f113167cb",
        (2000, "0"): "bda78ebdeb6c606edac29b7afcb5c8ae9cd736840a6ece74a696b79103f7ce91",
        (4000, "0"): "97373ac3ff431e9ebe386cabeb9fa6c633e65a99245ceaeb93509e5152cae7bb",
        (10000, "0"): "13e2e2a39efe4032e2c749af43b1387d6c22d3f37f4714a998da089e4a760542",
    }.items()})
