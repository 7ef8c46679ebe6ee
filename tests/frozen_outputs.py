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
and says why in CHANGES.md. The entries at n = 256 hold for OpenBLAS 0.3.31
on two threads, as CI pins it: LAPACK's LU rounds differently on one thread.

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
    # Newton step's Hessian took cos(du/2)**2 from the chord.
    "minimize-uniform-256-0.5": Frozen(
        _cli("minimize", "--input", "-", stdin=_uniform(0.5), record="uniform-256-0.5"),
        "13d8577677ba2bc540b7f57f16fc8aa08355b3a9ce7777e08308b8cdce049268",
        "a Newton solve at n = 256 whose radial powers take np.power"),
    "minimize-uniform-256-1": Frozen(
        _cli("minimize", "--input", "-", stdin=_uniform(1.0), record="uniform-256-1.0"),
        "1ca6ec327d2e8c670773aa8523be1fdb2e5bf05831875971a51735fd6c1ecc1d",
        "a Newton solve at n = 256 on unequal masses"),
    "minimize-uniform-256-3": Frozen(
        _cli("minimize", "--input", "-", stdin=_uniform(3.0), record="uniform-256-3.0"),
        "830180e1dd6b810845b4a4156163a56496091d702807f3f7f5ce60735322eb88",
        "a Newton solve at n = 256 whose radial powers take a multiply chain"),
    "exclude-uniform-256-0.5": Frozen(
        _exclude(certify_masses("uniform", 256), "uniform-256", (0.5,)),
        "9f126cec9a461cfa73b5226a7f16addfea0340c0e932fb894261c1d488b78d79",
        "the group scan's 2n image rows at n = 256, where a gemv may split"),
    "exclude-uniform-256-1": Frozen(
        _exclude(certify_masses("uniform", 256), "uniform-256", (1.0,)),
        "55d44804cdc1390d7cc32d1622edaa0a9b2a049bc37aae5ff307c79d29e0c9ec",
        "W read off the frame the solve leaves, so exclude builds no chords",
        fresh=True),
    "exclude-uniform-256-3": Frozen(
        _exclude(certify_masses("uniform", 256), "uniform-256", (3.0,)),
        "4d4815d1f97f819bd6a23a839665ec11eb33ee0f3e36cf9084c639ebd72bcd91",
        "the group scan's 2n image rows at n = 256 and alpha = 3"),

    # 255 unit masses and one of 300, first taken while the group scan ran
    # one gemv per distinct image in a Python loop, again from
    # minimizer._mass_start and again with the Hessian from the chord.
    "exclude-one-heavy-256-0.5": Frozen(
        _one_heavy_256(0.5),
        "09fa71d1b752bf6f8dd3dd4e33a6bf11dbc88382ef0cdd00a34855bae09f5c5c",
        "the group scan's repeated images at n = 256"),
    "exclude-one-heavy-256-1": Frozen(
        _one_heavy_256(1.0),
        "fc989aebb6990ef40b42c83541a57f26dad1111deaeae10e18f28e99224260c4",
        "the swap check's verify_cc on the solve's frame at n = 256",
        fresh=True),
    "exclude-one-heavy-256-3": Frozen(
        _one_heavy_256(3.0),
        "e9561da47a27cf04677a85208b047ca85e1fd933379679e8e8faa1067e1fc6c3",
        "the group scan's repeated images at n = 256 and alpha = 3"),

    # verify on the n = 256 minimize output, first taken while the mirror
    # wrote through a mask, again from minimizer._mass_start and again with
    # the Hessian from the chord. In process verify reads the minimizer's
    # frame; in a fresh process it builds its own chords.
    "verify-uniform-256-0.5": Frozen(
        _minimize_verify(_uniform(0.5), "uniform-256-0.5"),
        "6a7177dce6e6f89395dd09b10cdc127d80a0e5eaeca9a7a41fc58de62330d416",
        "verify's residuals at n = 256 where the radial powers take np.power",
        fresh=True),
    "verify-uniform-256-1": Frozen(
        _minimize_verify(_uniform(1.0), "uniform-256-1.0"),
        "753f2e071bb4f93d1f995f4fd9cebe15b6953e4d8ba5818f2310b3655addcb2b",
        "verify's residuals at n = 256, the JSON writer's report shape",
        fresh=True),
    "verify-uniform-256-3": Frozen(
        _minimize_verify(_uniform(3.0), "uniform-256-3.0"),
        "5d80d2011824815b077a9734d836dca3d090ef011b0a089d43e95cf9d7e15720",
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
    # the chord.
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
        "23216f94ef1037f208f2bd72087117496a189f9e9107d04020fa524c61dfefe6",
        "the file minimize --output writes"),

    # Taken while the group scan still found repeated images by hashing the
    # rows, and again with the Hessian from the chord.
    "exclude-shift-fixed": Frozen(
        sum((_exclude(m, f"shift-{s}") for s, m in SHIFT_FIXED.items()), ()),
        "beb5bfda9267861154f4d502e3c107e3679cce82cda3c406d0b601d017e5f663",
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
# time, again from minimizer._mass_start and again with the Hessian from the
# chord (all but two-heavy 26, graded 9 and uniform 9 moved). At n = 40 only
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
        ("one-heavy", 13): "ee908e86bdd005a5c48c190a70caec4a580b2de5a11ffa61552b1227aec992c8",
        ("one-heavy", 26): "ab263e2e1c3e928568f08596a7509e529cd608e09f17b6c613ebce84c6fbbbe3",
        ("one-heavy", 40): "8e9f3b116987d402f47ee398eb8583e1bcd1f094193b9c955b5a553258d09fc4",
        ("two-heavy", 9): "8f7bdd55fa47eefe7cc4b5f4b8b80aaa22ec2520285f9c6c89236579be42460f",
        ("two-heavy", 13): "46b4f5dd77a9751d2f5fe548b81c5911102854d63541f0ac39a610f2477d971a",
        ("two-heavy", 26): "7da761a87e01c0ed746097e17e40c33eb4df71d56c892f416fff7e092a3b6631",
        ("two-heavy", 40): "ad859088467fa8aac44a54abe4e906aed37846df0250f7b93294897632138ded",
        ("graded", 9): "137c5bbda9216304b41c4a9af0d220ae470a9336a0c2a1e12b64dcd02ab71419",
        ("graded", 13): "72013f0d327d1547978728091a60f7aeab90e6fbbd04cc87ba36bd7c0b169ab5",
        ("graded", 26): "9c93cae842a0a7d1a4673258337ff40dc1ce24d65da502fa13df194f7a4efe8b",
        ("graded", 40): "13d6972596d15ccb413ca4328a560d8b9820b12c00b00d32727188a7009255b1",
        ("uniform", 9): "8b03aa8a168c4ae68c8af5cc20e2d7921043783a20299d681340eb408e0452ca",
        ("uniform", 13): "ba5b4c9ca71c09a4779f4d2646848b723236f4907b0e5388cd249cbe2891ab77",
        ("uniform", 26): "08b0bb8630947ac0073d7160fe16d02f260c071f97f55ca46c4e76e4b7a94c7f",
        ("uniform", 40): "3641415269ba79f0d9c5c769a19625de9189c6b28fedabb378b6ccdbddf73eed",
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
