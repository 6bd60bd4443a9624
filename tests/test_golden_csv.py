"""Byte identity of the CLI's CSV output: the sha256 of each subcommand's
default CSV at `--seed 0`, and of `mfg --repetitions 2`. A change that moves
any of them changes what a run writes, and must say why."""

import hashlib

import pytest

from mirrorwyner import cli
from mirrorwyner.cli import main

GOLDEN = {
    ("mi-tradeoff",): "21298267674eb9d4878a161c4e6f45fdd55abb6eec4be9fac54a0d5be5cb84a5",
    ("secrecy-gap",): "36e0b6302834b05553264f05d06548845892e7d0192bce8ecdb72d70f19f8f2d",
    ("convergence-cdf",): "76c5397d6f7379e1f6afc01de004ad8725e08eaf11dadece53f60e95a3ac0375",
    ("mfg",): "a6f062a64e1089679062c5cc1c98a9402827481e5d05ef1c7d3684717ba3af9a",
    ("mfg", "--repetitions", "2"):
        "98fd1d303b8ad43f1003f8eecb66f25a21b4388604e1187911ef360b2aebe5a1",
    ("lohe",): "2648af51e60ba8b084e7e01d5e8d4bc5cb0c144a339e4f00a80abf2c5c469b53",
    ("stackelberg",): "2c9ed5fcb7068ca03044c647b97495d2c29b2f572e629a147f17d98e2afdb9c3",
    ("nash",): "2da68b160967fda97b2e4677de336cd1051538cba5f72ea68540af8a749b1708",
    ("plant",): "b6029e6b1fbd885367135be49f7e60ed8050e2c56158efa9553108b81dc56dfa",
    ("divergence",): "c82ea60984f4c2d20d233196acaf06cbcf2d5ca5746081949b720151008aa136",
}


def test_every_subcommand_has_a_golden_csv():
    assert {argv[0] for argv in GOLDEN} == set(cli.SUBCOMMANDS)


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_default_csv_bytes(tmp_path, argv):
    out = tmp_path / "o.csv"
    main([*argv, "--seed", "0", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]
