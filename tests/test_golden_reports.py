"""Golden output: sha256 digests of canonical ``check``, ``gen`` and ``verify`` output.

The check reports run all twelve properties on ``gen`` instances of the four
families at n = 1..3, k = 1..2, seeds 0 and 1, with ``timing_seconds``
removed; the verify reports run every theorem for 3 trials at n = 2,
k = 1 and 2, seed 0 (a passing verify report lists no trials, so those
digests pin the verdict of each suite).  The gen digests pin the instance
files of the column_w_constructive family, whose C_i = C_0 D_i draws are
the same in gen_tuple and the T3.2 suite.  The check and verify digests
were recorded before the verdict types and the check dispatch were
unified, so they pin every report byte through that refactor.  One
exhaustive report pins the full list of column W violations, each sign
conflict with its ``conflict_with`` determinant.  Two rational documents,
whose rows have different denominators, pin ``check``, ``check
--exhaustive`` and ``solve`` where scaling each row to integers by its own
factor and scaling A by one common factor are different computations; a
third, with two bound blocks, pins ``solve`` where the same holds for q
and the bounds d.
"""

import hashlib
import json

import pytest

from ehlcp.cli import main
from ehlcp.io import dump_json

ALL_PROPS = (
    "column_w,column_w0,column_ndw,column_ndw_def,csw,cone_csw,"
    "x_col_suff,z,m,p,nondegenerate,column_sufficient"
)

GOLDEN_DIGESTS = {
    "check-column_w_constructive-n1-k1-s0":
        "a8a23895a0a9d07f01ca9716e52ae6345257b0973bd60cda938c617f05e29da9",
    "check-column_w_constructive-n1-k1-s1":
        "b81cdcd454fc2328a212b5de8a2283bb881468e27ac1679fce749792ecba6864",
    "check-column_w_constructive-n1-k2-s0":
        "542204e45bce1a48de984a9c479103532af3d21d3605a12a2e32cb79178df6a5",
    "check-column_w_constructive-n1-k2-s1":
        "4da4438e2e5b1209570ab67b21eabdce896b901909c73429814fc4fcd449ddbd",
    "check-column_w_constructive-n2-k1-s0":
        "25637d04c67e98b1f51e33d66f9c58a36fbbb51b6df01e9a4f803527f0fccdb4",
    "check-column_w_constructive-n2-k1-s1":
        "0ff997f81a46ddf426dcb7cfb617e4d1bb67585df7456bea58ac6554d0d4d426",
    "check-column_w_constructive-n2-k2-s0":
        "eeccc5d7ee1b25b6c580b3d59a77ad4147ab5ad3818a6dc27d6c094adbb7a20b",
    "check-column_w_constructive-n2-k2-s1":
        "dcf648d75fa84146d9201da7834491a09a4d56530d7cfed8e0fbbff4f74057d3",
    "check-column_w_constructive-n3-k1-s0":
        "bebd4aa3e06f5a37657a3c21d7b3e4ad2824a04ddea5456c25cf26290dcdad05",
    "check-column_w_constructive-n3-k1-s1":
        "4c01fe486aab72dc393c6da5290ebeee23e877d1feba93ac5bf58ef859ad104f",
    "check-column_w_constructive-n3-k2-s0":
        "3b24f2ddc4848ab988092ae53e4acd210e15ff493b260a9ea15f4ec0f822039c",
    "check-column_w_constructive-n3-k2-s1":
        "3ff612dc059643b809d87eb9e53dda0380ebffbbc45e25ffcd2eb12fe78ee058",
    "check-degenerate-n1-k1-s0":
        "bf0733d00dc074e440ec38cd07ddc6cf5741649056802a3f05e531a0109a3857",
    "check-degenerate-n1-k1-s1":
        "8004215cb1fba3389ec5c5c29dbf50a290ebdc8cba49fb28e84fe00a3e59c0cb",
    "check-degenerate-n1-k2-s0":
        "3850e8eec93534ec8c37dd1492fda6cf7c1d60fe3a75ece30c0623099137ce03",
    "check-degenerate-n1-k2-s1":
        "7c1cfe0d7ab8aecc4733d6ebcd8b3c39b34f3ecd81c1e1cdca9c10dec13c90a8",
    "check-degenerate-n2-k1-s0":
        "388ac42bb62a99af4ca32bc50c7ee093afd9c44b8a711345f24cf1b5f2a4fb41",
    "check-degenerate-n2-k1-s1":
        "f30c404668f00cc4277a180cf13247fd52e6b1e8a7e1959809a6aaa0a2fb1141",
    "check-degenerate-n2-k2-s0":
        "170b31f064d93e92f91ab35ad9df8a37e61b4268de911222ed42be3e40e1655b",
    "check-degenerate-n2-k2-s1":
        "0eaeb6c07bc9394d136c3c78c663dba6fecab5d0f0c49b31f26e889e6b6c8470",
    "check-degenerate-n3-k1-s0":
        "46689744072ea8a2bfd7f8532180e6aff326d846601b8abba4a3e1efd0ae8597",
    "check-degenerate-n3-k1-s1":
        "ce2c70d78fbe129d7d5776e523d4bb19e1932fed67a5d2330416961c7ce6b3cf",
    "check-degenerate-n3-k2-s0":
        "9f557d4570063c7c70c6eadcb73fc0a0fa7f1397074b5dbb40c3f43950da0a5a",
    "check-degenerate-n3-k2-s1":
        "cbfd48661dc3eca26c6044d9529485435dff084b2130c7ffd7a88013e7588f22",
    "check-generic-n1-k1-s0":
        "a8a23895a0a9d07f01ca9716e52ae6345257b0973bd60cda938c617f05e29da9",
    "check-generic-n1-k1-s1":
        "32fdd3edd04186295e27ffe7fb88ad7cd9c9ca199110330c47486a8374c7fd20",
    "check-generic-n1-k2-s0":
        "e7e9df2db2a14b7b17b0f698fadb65329d0a20238187a41916478b640aacc07e",
    "check-generic-n1-k2-s1":
        "ff9664028e7ad3f7570206de2e62310013c3421be36e1050f16f81bbb3dd833c",
    "check-generic-n2-k1-s0":
        "973be0575f9419b0c95800896dd593f38cfa3a87f283914bfa128a3e22d8fc08",
    "check-generic-n2-k1-s1":
        "922912e0999222a2b4b9b89084433da710dd986a4de753a26ce390b7ea5a4880",
    "check-generic-n2-k2-s0":
        "1c9dce79d54d797dd7d5cf598c4c9ba97636a1cc251e880670a2696b13a4e270",
    "check-generic-n2-k2-s1":
        "dbd8faf97cffc1bcee870ff796bad96157dd1f3bfd92c4d21552295a8a6048dc",
    "check-generic-n3-k1-s0":
        "460a18fa021b37f905a9bce4b2f90adc0f2be0083ba441262cfeb7d645d95fba",
    "check-generic-n3-k1-s1":
        "793cca3b2bea7d2a9498530f4c2d12260c724b5c6d33d9b56aaad26b2c972e5b",
    "check-generic-n3-k2-s0":
        "50bf0e7e8dc98401a64794d5df233c2c3d182e385b003ea525b35d4bd1779f87",
    "check-generic-n3-k2-s1":
        "98da692429eb895337e642e2382a7c4a6dbe6f8f41d298ca47e56f1ceb1eba3e",
    "check-z_structured-n1-k1-s0":
        "d131895d3412b63644b3b1c5cb760a8ceb7f7824205d2f383baa0a24710db9d0",
    "check-z_structured-n1-k1-s1":
        "d131895d3412b63644b3b1c5cb760a8ceb7f7824205d2f383baa0a24710db9d0",
    "check-z_structured-n1-k2-s0":
        "152ce9fe6e640a33a46aacb50af5cd4d918ac8df0a730e172f9fd4de2dfef6aa",
    "check-z_structured-n1-k2-s1":
        "9c035a64ed540e82cbdfc532bafb82ddcf5c982a6ac14f657864df41d83eac6b",
    "check-z_structured-n2-k1-s0":
        "24c1d09649e2631a65a908d54fe7c6d46debb04df59e7f97f2297447247ea048",
    "check-z_structured-n2-k1-s1":
        "f0822480ce00c45bc4d17baa69ed31157bf13de298a965babaf1f7e1b72fc016",
    "check-z_structured-n2-k2-s0":
        "026aca0b648aa680ce34196cff409173b036d20392dd3255457530799b02d2f1",
    "check-z_structured-n2-k2-s1":
        "024d5883f3c1cc569d0ff4899e60f4ab9ba4706f2e41a482f73f79a8e9f76e72",
    "check-z_structured-n3-k1-s0":
        "85ab48221bf347b3ca333c85046413b8e19e5e161ef662f51f4cb05f1eb982ce",
    "check-z_structured-n3-k1-s1":
        "46f61973b4a9363808a9f23efd18caad6981d6480e8fe41ccbc98aceb49f8d7c",
    "check-z_structured-n3-k2-s0":
        "2aeb7340f9e4de8151504ab576102d90f40e83fdf8d5a139a3816258f9a81147",
    "check-z_structured-n3-k2-s1":
        "58e168eeed0a2eaa868c289aa66675dfde1bf1bff6768edf2d57ed0b347c2cc0",
    "gen-column_w_constructive-n2-k1-s0":
        "1cc622b72252d3b94f1aa8f3718e5ffafd1de3e5c5b7ac8075eda5f28caa8d5e",
    "gen-column_w_constructive-n2-k1-s1":
        "119b618494762860bb109d402c56d79591f58004fdbc1cad418a6955de2bf349",
    "gen-column_w_constructive-n3-k2-s0":
        "2a927fce880ffe658949097a34addcd0b54eb188b347128645390362160d19b2",
    "gen-column_w_constructive-n3-k2-s1":
        "f4c32b9fbd6159eb40b6e78262df916cf13e76c33b6eac51c7e4c7c532741f5d",
    "gen-column_w_constructive-n4-k3-s0":
        "ac077e152e5002b105b2dfd3d623188cce0789f50bdbcdacd995174a61b7dcba",
    "gen-column_w_constructive-n4-k3-s1":
        "66731adde079376655042164c4f0f5f1adee9b2a253a9b7e1e5e12f84dc9cdba",
    "verify-C4.1-zconvex-k1":
        "0e7249742e4465e409f45bc875f8be304b56b4604d471c04c9836997f88f6cdb",
    "verify-C4.1-zconvex-k2":
        "0e7249742e4465e409f45bc875f8be304b56b4604d471c04c9836997f88f6cdb",
    "verify-P3.1-pairs-k1":
        "24b2944d25142d2aaacd388843ead264f3a451ff14c351ae8e5abdd50ea164aa",
    "verify-P3.1-pairs-k2":
        "24b2944d25142d2aaacd388843ead264f3a451ff14c351ae8e5abdd50ea164aa",
    "verify-T2.1-equiv-k1":
        "a889dcf6fa72c3af92897a406ad45e06e150b0ad19ccdc2a73feaaa3f1e025d0",
    "verify-T2.1-equiv-k2":
        "a889dcf6fa72c3af92897a406ad45e06e150b0ad19ccdc2a73feaaa3f1e025d0",
    "verify-T2.2-finite-k1":
        "4f7311872f475469653e145fb555c73d9a2ee13bed6dd6121981608c2b30ff53",
    "verify-T2.2-finite-k2":
        "4f7311872f475469653e145fb555c73d9a2ee13bed6dd6121981608c2b30ff53",
    "verify-T3.1-convex-k1":
        "45c346bf011a390c92e48a2ab273a57c3067cda09c3fc7e20bcbe9bfd1d0e143",
    "verify-T3.1-convex-k2":
        "45c346bf011a390c92e48a2ab273a57c3067cda09c3fc7e20bcbe9bfd1d0e143",
    "verify-T3.2-unique-k1":
        "7b9f39898de0f4ac1ba574a40eedb824f7f7cf8416a65ad1ba23f3c323e13c9c",
    "verify-T3.2-unique-k2":
        "7b9f39898de0f4ac1ba574a40eedb824f7f7cf8416a65ad1ba23f3c323e13c9c",
    "verify-T4.1-ndw-k1":
        "ae12cc30ecdbe5da55514ff0cdb747c1fd16985515a8a897d3af1aa883440f66",
    "verify-T4.1-ndw-k2":
        "ae12cc30ecdbe5da55514ff0cdb747c1fd16985515a8a897d3af1aa883440f66",
    "verify-T4.2-equiv-k1":
        "d586f55f6b804b4fe1c9cc3bdb277cc29355727786f7f8fc400a91e7d46c5cca",
    "verify-T4.2-equiv-k2":
        "d586f55f6b804b4fe1c9cc3bdb277cc29355727786f7f8fc400a91e7d46c5cca",
    "verify-T4.3-chain-k1":
        "34343c8580365c491d939031c6932479920074d14e57bac3080e59eaf8a9878b",
    "verify-T4.3-chain-k2":
        "34343c8580365c491d939031c6932479920074d14e57bac3080e59eaf8a9878b",
    "verify-T4.4-cone-k1":
        "6ff038795f77acb045d4e0f471fc1ed769fdd5e1ca53094cfe53567e22fbb06c",
    "verify-T4.4-cone-k2":
        "6ff038795f77acb045d4e0f471fc1ed769fdd5e1ca53094cfe53567e22fbb06c",
}

# check --exhaustive --props column_w,column_w0,column_ndw on gen --family
# generic --n 3 --k 2 --seed 0, whose 27 determinants hold 1 zero and 12
# conflicts with the first nonzero one; recorded before the conflicts shared
# one serialized copy of that first determinant, so it pins those bytes
EXHAUSTIVE_DIGEST = "76ba0f7e69d4b56e00ccfdee9e301df0f06629796f2ff57f6b1ec4e9afc0dabc"


# rational documents whose rows have different denominators: r31 has rows of
# denominators 2, 3 and 4, r42 rational C and bounds d of denominators 2 and 3,
# r33 two bound blocks, d of denominators 2 and 3 and q of denominator 5, so the
# selector tree's root rows have their own lcms 10, 15 and 6 (times C's 2)
# where one common factor for q and d is 30
RATIONAL_DOCS = {
    "r31": {"n": 3, "k": 1, "q": [0, 0, 0],
            "C": [[["-1", "-1/2", "-1/2"], ["-1/3", "2/3", "2/3"], [0, "-1/2", "1/2"]],
                  [[0, 1, -1], [0, "-1/3", "-2/3"], ["-1/4", "1/2", "-1/2"]]]},
    "r42": {"n": 4, "k": 2, "q": ["-1/6", "-7/9", 0, 0], "d": [["4/3", 7, "1/2", "5/3"]],
            "C": [[["1/2", 1, -1, 1], ["2/3", "4/3", "-2/3", "-2/3"], [1, -1, 0, 0], [2, 1, 0, 0]],
                  [["1/2", 0, "1/2", 0], ["4/3", "2/3", "2/3", 0], [0, 0, 1, 2], [0, 0, 1, 2]],
                  [["1/2", "1/2", 0, 0], [0, "2/3", "2/3", 0], [0, 0, 1, 1], [1, 0, 0, 1]]]},
    "r33": {"n": 3, "k": 3, "q": ["1/5", "-2/5", 1], "d": [["1/2", "1/3", 1], ["3/2", "2/3", 1]],
            "C": [[[2, 1, 0], [1, -1, 1], [0, 1, 1]], [[1, 0, 2], [0, 1, 1], [1, 1, 0]],
                  [[1, 0, -1], [0, 2, 0], [2, -1, 1]], [["1/2", 1, 0], [-1, 0, 1], [0, 1, "-1/2"]]]},
}

RATIONAL_COMMANDS = {
    "check": ["check", "--props", ALL_PROPS],
    "exhaustive": ["check", "--exhaustive", "--props", "column_w,column_w0,column_ndw"],
    "solve": ["solve"],
}

# recorded while the determinant tree scaled each row by its own factor and
# the selector tree scaled the rows of the Fraction A one by one; r33-solve
# while the selector tree's root scaled each row to integers by its own lcm
RATIONAL_DIGESTS = {
    "r31-check": "1fd0f2fcf872d059bbfddea576c5a1ece1cc3b5d15c7646ad191b6e69c9de422",
    "r31-exhaustive": "8dca7217ab15f33995fd451522188c976c776223e5a75c30d33877957a1ea4b4",
    "r31-solve": "9d449f778c6657afbaa737d52860644afe8972b79ec2cb02f821939c403dc476",
    "r42-check": "de587f1dcfc330bb70a04c97f2bb485474525ae0b911904f2b2f879e1eb7669d",
    "r42-exhaustive": "2da38fbb0732a4d6495c292d2076b23e04ee3ee222098b9deb6a475bbcfda7bd",
    "r42-solve": "e2b6e059d592b5c79c09258a9a8dee1ee6e5b8fc5e9bb6e542ed4ee2f2d305c8",
    "r33-solve": "dbad6004bee8f30f97c042bd4dd50c45785f48f97504a567fbefbed41ece48ec",
}


def canonical_check_report(tmp_path, family, n, k, seed, props=ALL_PROPS, flags=()):
    inst, out = tmp_path / "inst.json", tmp_path / "report.json"
    gen = ["gen", "--family", family, "--n", str(n), "--k", str(k),
           "--seed", str(seed), "--out", str(inst)]
    assert main(gen) == 0
    assert main(["check", *flags, "--file", str(inst), "--props", props, "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    del doc["timing_seconds"]
    return dump_json(doc)


class TestGoldenReports:
    @pytest.mark.parametrize("label", sorted(l for l in GOLDEN_DIGESTS if l[:6] == "check-"))
    def test_check_bytes(self, tmp_path, label):
        _, family, n, k, seed = label.split("-")
        text = canonical_check_report(tmp_path, family, int(n[1:]), int(k[1:]), int(seed[1:]))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[label]

    def test_exhaustive_check_bytes(self, tmp_path):
        text = canonical_check_report(tmp_path, "generic", 3, 2, 0,
                                      "column_w,column_w0,column_ndw", ["--exhaustive"])
        violations = json.loads(text)["verdicts"]["column_w"]["witness"]["violations"]
        assert sum("conflict_with" in v for v in violations) == 12 and len(violations) == 13
        assert hashlib.sha256(text.encode()).hexdigest() == EXHAUSTIVE_DIGEST

    @pytest.mark.parametrize("label", sorted(RATIONAL_DIGESTS))
    def test_rational_report_bytes(self, tmp_path, label):
        name, command = label.split("-")
        inst, out = tmp_path / "inst.json", tmp_path / "report.json"
        inst.write_text(json.dumps(RATIONAL_DOCS[name]), encoding="utf-8")
        assert main([*RATIONAL_COMMANDS[command], "--file", str(inst), "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        del doc["timing_seconds"]
        assert hashlib.sha256(dump_json(doc).encode()).hexdigest() == RATIONAL_DIGESTS[label]

    @pytest.mark.parametrize("label", sorted(l for l in GOLDEN_DIGESTS if l[:4] == "gen-"))
    def test_gen_bytes(self, tmp_path, label):
        _, family, n, k, seed = label.split("-")
        out = tmp_path / "inst.json"
        assert main(["gen", "--family", family, "--n", n[1:], "--k", k[1:],
                     "--seed", seed[1:], "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[label]

    @pytest.mark.parametrize("label", sorted(l for l in GOLDEN_DIGESTS if l[:7] == "verify-"))
    def test_verify_bytes(self, tmp_path, label):
        theorem, k = label[len("verify-"):].rsplit("-k", 1)
        out = tmp_path / "report.json"
        main(["verify", "--theorem", theorem, "--trials", "3", "--k", k, "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[label]
