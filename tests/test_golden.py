"""Byte-identical CLI output on seeded tables, pinned by SHA-256.

Each table is ``random_context(Random(seed), 14, 12, 0.3)`` clarified and
written as Burmeister. The digests were taken from the CLI before the
closed-form witness extents replaced the preimage loops, so any change to
the printed motifs, witnesses, tie counts, coverings or basis columns
shows here. ``cover-nested`` runs the normalized greedy over every motif
to full coverage; it was taken before the greedy re-scored only its top
gain bucket. ``motifs-all`` lists every motif of every family, so it pins
the listing's order (family, size, sorted domain) and each witness; it
was taken before the hereditary search kept its options as object masks,
and still holds since only the listing sorts and the searches emit in
their own order. ``motifs-min1`` and
``motifs-max3`` list every motif with singletons and with a size cut;
they were taken before nominal and contranominal sets came out of the
search in order instead of being sorted into it. ``motifs-top-min1`` and
``motifs-top-max3`` list the maximal motifs with singletons and with a
size cut, so they pin the maximal motifs that the nominal clique search
marks for a one-object domain and at the size bound; they were taken
before nominal sets were enumerated as cliques. The crown tables are
``crown_heavy_context(Random(seed), 12)`` clarified, pinned before crown
search started from seed triplets. ``concepts`` lists every extent in
lectic order on all six tables; it was taken while NextClosure still
built the extents, before they became the intersections of the columns.
The spices-scale table is ``random_context(Random(3), 37, 56, 0.19)``
clarified, 37 objects and 494 extents, pinned before crowns were walked
on the context's meet-link table. The basis of it and of the crown
tables was pinned before the basis read its columns off ``scale_extents``
with no second shape form. Its maximal motifs (``motifs``) were pinned
before the maximal nominal list came from a pivoting maximal-clique
search instead of the full clique list.
To regenerate after a deliberate output change, print ``_digest(...)``
for every case below and paste the results.
"""

import hashlib
from random import Random

import pytest

from ordmotif import clarify_objects
from ordmotif.cli import main
from ordmotif.io import to_burmeister

from oracles import crown_heavy_context, random_context

COMMANDS = {
    "explain": ["explain", "--k", "10"],
    "cover": ["cover", "--k", "1000000"],
    "cover-json": ["cover", "--json", "--all-motifs", "--heuristic", "normalized"],
    "cover-nested": ["cover", "--k", "1000000", "--all-motifs", "--heuristic", "normalized"],
    "basis": ["basis"],
    "concepts": ["concepts", "--list"],
    "motifs": ["motifs", "--json", "--maximal-only"],
    "motifs-all": ["motifs", "--json"],
    "motifs-min1": ["motifs", "--json", "--min-size", "1"],
    "motifs-max3": ["motifs", "--json", "--max-size", "3"],
    "motifs-top-min1": ["motifs", "--json", "--maximal-only", "--min-size", "1"],
    "motifs-top-max3": ["motifs", "--json", "--maximal-only", "--max-size", "3"],
    "crowns": ["motifs", "--json", "--families", "crown", "--crown-cap", "12"],
}

GOLDEN = {
    (1, "explain"): "2d6394b8ec772722394b6e1c61bc4da688d2b53ef881476d58c124a2fba81571",
    (1, "cover"): "2a1e2727261b9c559f7f806a2e7690dfec395e0e35928b3d389dbd39dbd58e00",
    (1, "cover-json"): "ddf60e8c732238fa930e07d68cf2af5343a4c3104256bbe7b5c5992358c26985",
    (1, "cover-nested"): "c2bb00f404edd6a8dadb3b500fa39e09b353b805d6d6e30a406cf05397d323d6",
    (1, "basis"): "11c42a49391ce03e4eabfaf98ea33b4bff2a9f534d6cbc2f9ca48aa7d8e3dd73",
    (1, "concepts"): "628cb7af8c940759cfb8d2a986e2ba5fbcfc9eb1f8aed0cfecaa6e8e681f4cef",
    (1, "motifs"): "6687d7884abfae6223a9f9ec299635c312ac97b350f8aebe25451137d8b842dd",
    (1, "motifs-all"): "71e33dbdd0bc460a8634a33e403b1a8ea87f874d924f12db59a1c1f80756e6d0",
    (1, "motifs-min1"): "8fb63138d9c202b5ecb8f8ff15fdbdf8d59b6f13262136b62acc3858e197dfb9",
    (1, "motifs-max3"): "ec2b2987ceaffe526b8683fffd6b116f19efe1cf6ef8190aecb2fcc0c680c08a",
    (1, "motifs-top-min1"): "66da5447a8a5bc19b3027d8a251e757adec5825600e5f16e1cfebef65293aab1",
    (1, "motifs-top-max3"): "c85f9952728f126a030ddeeba1f1179450f23695f4513e0ac99ab701af26b3cb",
    (2, "explain"): "c87ea72beb6920f846fc72ca34539c71899868d846bbe606da9073e100e2c315",
    (2, "cover"): "f5d83e3cc1b0f67b84d33890eace3e3d418609e4f575e52e6c73f622d5eff8b3",
    (2, "cover-json"): "63d53091fd4a745782b393f33e5be4f98af9b00c58440ca2e8e4abcccf637692",
    (2, "cover-nested"): "78b46b1e93baab34e5ebc30f72d7f94472c1649b422ca5d90f595da3dc69e7eb",
    (2, "basis"): "cca362f2f473be08f17f5e52f25d623b90d3831c5f2f0ab6f692e5ae53fcdbc1",
    (2, "concepts"): "d89619e7ef61b78c3ccd954dcb80648b79e8c5c90ca01da5a67925577663ddd9",
    (2, "motifs"): "2c96cbca907b4800c0377dfc3546397ba6dc484bc73362d1575f7aa2d3e95946",
    (2, "motifs-all"): "f01626200495dc7e88580f09878913188c0ef4a651dfb36cfed8aa256e25b445",
    (2, "motifs-min1"): "f95978ae283d36cd00e386408895ab26d1fdaa61739dff2c948aee66166076ff",
    (2, "motifs-max3"): "e817312fbd8d7643ecb60d51449349e6a14b419b8cc63a05e3a3a8d07cbeb493",
    (2, "motifs-top-min1"): "56286cc88f363734bbdb351e237214e6d5b4212cba25912f3ee68018839e2fa0",
    (2, "motifs-top-max3"): "903337382e11ebddc2c97708bfe7abaccbbd163365af81e6b4d349a829e3e398",
    (3, "explain"): "030cd6987dc37d84a08d6185a59f1605df9fcd4eae10f79d1b5c9ca38a7444b6",
    (3, "cover"): "eb7351f000a67dcf8211941253bb2cfc602be5a199af2c5c1c4a3e431a0ec1e5",
    (3, "cover-json"): "bdbfbd08a09891bac542167541ac7849fbe23a84d5c49ba9a77834316fc4fdfa",
    (3, "cover-nested"): "58fc18dc129dbb105d96b6d97342b24cc9984a2b2744ef71a41e1beb5807de65",
    (3, "basis"): "8e72001849e2888693073cb9e364eead7707f78f110063960c0207b362563647",
    (3, "concepts"): "7c179947b8cb2bc5b46bd199cd6f6c7d20c8da5f59439b234c219c223f36a9e6",
    (3, "motifs"): "72641cd67c60a6674a8b3505e65ec90f4d2580ff34a64be6795ddcfb7b0871f8",
    (3, "motifs-all"): "33edd984e56e344ac27dd335ba948be9248b7a593cbb32ef601461b31228dcc2",
    (3, "motifs-min1"): "1623b873ebb8cfed675bc4d5252f8a3f4a559c1f89df76bc91ea77f69ba4496d",
    (3, "motifs-max3"): "a3b72b2ce134609b841c10fd7aeb8f8b66367665a341c8b77c423b973595c8fa",
    (3, "motifs-top-min1"): "7ba43de05d7f397f6c76e2b8a54eec7a37cc0e2c53039ab8451a1d9cc667abab",
    (3, "motifs-top-max3"): "5e4e5f6edf36a6857e57bdf4c90c9b760f671d0057ef4b7a2488009fd9d24e94",
    (4, "explain"): "29892766e705d0a181e6d0d1b2cbeff7c955f6665682afb41ff16c13acdbdf77",
    (4, "cover"): "a90dd7083628dbc6b65f58aa18bc6c2011d16ea3f603f32e29fb583ba6315822",
    (4, "cover-json"): "21874588c25b488b20fbba7a7e07ab0a4ad72e0a834e0a5195c5ffa6577c6bef",
    (4, "cover-nested"): "e216c73c5b94b8e18a008929193a672d707dc2cd5ce424ddb308c382919eba0b",
    (4, "basis"): "cb8b1d6cf4fae944c08440c88da41a7a263d6b0bcd6639f0cbac105b74b74916",
    (4, "concepts"): "f78ae4c83284b1f368b27cf0a3fb06897dc7430af03181c9d67881583c8a0bb1",
    (4, "motifs"): "da612104165f542cc53dc8b818ba70c7d7bae7470735ea7f151771f34001521b",
    (4, "motifs-all"): "724ee8c8e32e0c5e169c7eb160f54f484a3fa9793add346e34bcdbf6abf48437",
    (4, "motifs-min1"): "fe860b1da6e289c86c76a8f1a8fa1ef964956231234b828755becd464628955c",
    (4, "motifs-max3"): "86e5730215a0c896bde190a8307d9a0ae3542ca997a680aa287c7187a2d0d8c4",
    (4, "motifs-top-min1"): "10d38d3bcfd4b760a55d79706425816211ce917013e8c83def5606c0fa49f589",
    (4, "motifs-top-max3"): "90537c240b075a3fb0f15cb2753257a4014257f566c27af859c734279fb581dc",
}


@pytest.fixture(scope="module")
def table_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for seed in sorted({seed for seed, _ in GOLDEN}):
        context, _ = clarify_objects(random_context(Random(seed), 14, 12, 0.3))
        path = root / f"seed{seed}.cxt"
        path.write_text(to_burmeister(context), encoding="utf-8")
        paths[seed] = path
    return paths


def _digest(capsys, command, path):
    argv = [COMMANDS[command][0], str(path), *COMMANDS[command][1:]]
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed,command", sorted(GOLDEN))
def test_cli_stdout_is_pinned(capsys, table_paths, seed, command):
    assert _digest(capsys, command, table_paths[seed]) == GOLDEN[seed, command]


# 49 crowns of 3-5 objects and 24 of 3-7 objects.
CROWN_GOLDEN = {
    8: "72c004cb30496c6fbcd6bf793009e4339b0e5c44fe2eb48e540a8d623bca4eb5",
    11: "e7fc0a13c0e156b56004a89eda5d20153f756b07ff5013b8429fb0eb088e84d8",
}


# The extents of the same two tables, in lectic order.
CROWN_CONCEPTS_GOLDEN = {
    8: "e9aafdd8db7b878e7414a9e1734d001eaa069468c652202f1f3d845d19382bee",
    11: "eb3f6f04559f9e2dc89bf6e981bbc55564265a55cbc88a8d40faf3ad6e42ac3a",
}


def _crown_table(tmp_path, seed):
    context, _ = clarify_objects(crown_heavy_context(Random(seed), 12))
    path = tmp_path / "crowns.cxt"
    path.write_text(to_burmeister(context), encoding="utf-8")
    return path


@pytest.mark.parametrize("seed", sorted(CROWN_GOLDEN))
def test_crown_motifs_are_pinned(capsys, tmp_path, seed):
    assert _digest(capsys, "crowns", _crown_table(tmp_path, seed)) == CROWN_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(CROWN_CONCEPTS_GOLDEN))
def test_crown_table_extents_are_pinned(capsys, tmp_path, seed):
    path = _crown_table(tmp_path, seed)
    assert _digest(capsys, "concepts", path) == CROWN_CONCEPTS_GOLDEN[seed]


# The basis of the same two tables.
CROWN_BASIS_GOLDEN = {
    8: "4626df27d25a4a223d5999e6c0817ac576077091dd0084ccd1f31a02a4a979e2",
    11: "083c95996279a06d0d76a64dd4f96fad1776fa4540aa24c6dab99a3ed092a797",
}


@pytest.mark.parametrize("seed", sorted(CROWN_BASIS_GOLDEN))
def test_crown_table_basis_is_pinned(capsys, tmp_path, seed):
    path = _crown_table(tmp_path, seed)
    assert _digest(capsys, "basis", path) == CROWN_BASIS_GOLDEN[seed]


# Six commands on the spices-scale table: every motif, the maximal ones,
# the explanation, the greedy to full coverage, the normalized greedy over
# every motif and the basis.
SPICES_GOLDEN = {
    "motifs-all": "457482712dc959e40f036152af059f185d2e20c545801b1d93cc38483638b86c",
    "motifs": "e77c2d475cdc8fbeea299da118f875a46f7a0859e160dcac00a0de78826c1357",
    "explain": "a9ca50ae776ab0c0082f396d9f39201107c4f3873223b96549994a6b4ac9c416",
    "cover": "808cbcf81fad1e2316e76ae0852d3cd6616376f31a00d93ce7a5cd030dd58f9e",
    "cover-nested": "70d705da79480a3ef545faaec2887ac8ab9eda5186de55dad946a5e2fb0ccf98",
    "basis": "1a69505c945f745072c2fa83915e8f700746b8cbaa2304f8d01f30c19faebd04",
}


@pytest.fixture(scope="module")
def spices_path(tmp_path_factory):
    context, _ = clarify_objects(random_context(Random(3), 37, 56, 0.19))
    assert (len(context.objects), len(context.extents())) == (37, 494)
    path = tmp_path_factory.mktemp("spices") / "spices.cxt"
    path.write_text(to_burmeister(context), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", sorted(SPICES_GOLDEN))
def test_spices_scale_output_is_pinned(capsys, spices_path, command):
    assert _digest(capsys, command, spices_path) == SPICES_GOLDEN[command]
