"""Golden output: the sha256 of stdout, and the exit code, of fixed command
lines.

The hashes were recorded before the report path was unified, so they pin the
CLI's output byte for byte.  A deliberate change of output updates them.
"""

import hashlib
import io
import subprocess
import sys

import pytest

from spinestat.cli import main
from test_cli import STDOUT_MODES, stdout_mode_env, subprocess_env

# The command lines shown in README.md.
README = {
    "dist --n 6 --method recurrence":
        (0, "4276d7314defc42d9eb85df23552a46ea1c6487b25b0718fe76a4579638b1734"),
    "dist --n 8 --method closed --format csv":
        (0, "0e00470bc68882284e28aba78a1e33590ecd394dfc25378fd7a4dcab9d88f09c"),
    "average --n 10":
        (0, "1183594c4edd2444c946ae36b238f5bcfe8eabc2464cd1a7677a36dbb0f08265"),
    "limit --k 2":
        (0, "8d1a8a2b4bb9acdf8b0f452d81e64450af6de769aace39a4c6ddaa0acedf03b3"),
    "verify --max-n 9":
        (0, "4f397ba3de3e2f85bcfd2bcc32afa37c713a5feb32da9f0ccf7aa9a7494be0e3"),
    "sample --n 50 --samples 100000 --seed 42":
        (0, "7c53901f685524756dc2b8f48d52f87f6e14a125604b8853060938dfeaeba542"),
    "enumerate --n 3":
        (0, "b5b47384ceff2ac68e8dc6119f22916f9d0790ff2af78c3a60c9642d8d30ae85"),
}

# The commands of the benchmark's exhaustive workload.
EXHAUSTIVE = {
    "enumerate --n 11":
        (0, "9ee6381c42fc3f6ac2e4bfbfc8c3cb586c37d7b5ee90a591244080f6e528a0e5"),
    "dist --n 12 --method exhaustive --format csv":
        (0, "eccca9b21299bd777d0fa191d353bf1f6fc8272b34f5884841e156ab0eae8fb2"),
    "verify --max-n 10":
        (0, "d512d49b92b9bcf8ba0de79473883d96a32d4e9b9727c480f42a06acc9b28b88"),
}

# Larger sizes of three routes: series past the benchmark's n = 60,
# exhaustive one and two sizes past the benchmark's n = 12 (14 is the
# default cap), closed at and near the benchmark's n of about 1400, and
# closed as the exact column of sample.  Then verify two sizes past the
# benchmark's --max-n 10, where the bijection check holds levels 0..12.
ROUTE_SIZES = {
    "dist --n 1402 --method closed --format json":
        (0, "1866b4f65c59063c80e290cfb6f88ead3ec33f6f2bbdc1f0f23cc07ced37d2d2"),
    "dist --n 1000 --method closed --format csv --precision 30":
        (0, "35496e925c16f3305ec9993e628aae8d39213ebb43e5a4ecb3aac19a61fd2c31"),
    "dist --n 13 --method exhaustive":
        (0, "933eeb8bdde9c0d61967a5297d4e7b872bbcf73553d0fe8644acfd86844ccac1"),
    "dist --n 14 --method exhaustive":
        (0, "e40b3c9bfce1fdf05315eed61967489fa24678d32bc6a27ed4f2da564e9c906b"),
    "dist --n 200 --method series --format csv":
        (0, "1eed2f4fc7c1a2b9a869c78d70f8924197fd8c6ca6b756cee5cc462305b9fb67"),
    # sample's exact column at n = 4000, where the ballot counts have about
    # 8,000 bits.
    "sample --n 4000 --samples 3 --seed 9 --format csv":
        (0, "11944478557c50f90158491eb993801732f4b7ff48a3c4f2e188daaa647d2b2c"),
    "verify --max-n 12 --cap 13":
        (0, "17fa2959c21e676a59cf0d1c60452911c96b71d4e516f0aad31ccbc144a923af"),
}

# Outputs that span many of the CLI's stdout batches: enumerate's 5.4 MB
# cross about 660 batch edges, and its 20.8 MB of 27-digit codes about
# 2,540, and the recurrence route's 0.8 MB of csv about 95.
BATCH_EDGES = {
    "enumerate --n 12":
        (0, "918e315191a02296f6f32270c6ed05a256b60c907535c9e5f9eb73ab52ec963d"),
    "enumerate --n 13":
        (0, "0fa2ee90c3f157d34d8f19e25a12cd72b1761360faa121c4c67f347e3736e504"),
    "dist --n 1402 --method recurrence --format csv":
        (0, "df25f81f5198cd2eff8b0b696619a8d67b66b6fc0482d909cd8a815e41fa00aa"),
}

# Each command in each format, at small sizes, plus edge cases.
SMALL = {
    "dist --n 7 --method exhaustive --format text":
        (0, "760a0cff8603e71590bd0e4234ade80b660582ec8191f9c60b727d8b2c4033d6"),
    "dist --n 0 --method exhaustive --format text":
        (0, "bb42de08038410f945d280864c2690a29c463a6f065eaa66d8f284bf550fe37b"),
    "dist --n 7 --method exhaustive --format csv":
        (0, "b7302e4bbe64019fb36c6f7de21f51e61a91578acddfb77a873ac2d29f0d85ca"),
    "dist --n 0 --method exhaustive --format csv":
        (0, "bfc6cde36e9f6cf0f8592d280e7ceefc1ba7dc4a4b69636bc19faad202271326"),
    "dist --n 7 --method exhaustive --format json":
        (0, "3ad3cd3b765cd10882d7342e76a05fee8d66470340312b4baedd2f01e6095187"),
    "dist --n 0 --method exhaustive --format json":
        (0, "6a80da1d25b87162a387f1f8984d27eb7e3784886085f95dee332b5fdab3cd80"),
    "dist --n 7 --method recurrence --format text":
        (0, "8e5c61a0621748c2edce24e0cfd596d84b3d3d64e81643d058e3f7291ff875d5"),
    "dist --n 0 --method recurrence --format text":
        (0, "d8efa83410d918f631f31cbe4a8d655e9732676e2f029039fdb027e29c495574"),
    "dist --n 7 --method recurrence --format csv":
        (0, "b7302e4bbe64019fb36c6f7de21f51e61a91578acddfb77a873ac2d29f0d85ca"),
    "dist --n 0 --method recurrence --format csv":
        (0, "bfc6cde36e9f6cf0f8592d280e7ceefc1ba7dc4a4b69636bc19faad202271326"),
    "dist --n 7 --method recurrence --format json":
        (0, "0e2c3a4cb2db78aae63e9c2ed36aff1fb42f1af08b3c2c9765f704ca10852c49"),
    "dist --n 0 --method recurrence --format json":
        (0, "6422db134f2cf85e3568a73fe7b556fe00b857a52249f2f2b567d88af249255c"),
    "dist --n 7 --method series --format text":
        (0, "eb06f261e3c7a22a8d453ddf34ccc07a927eddc43e2a16afac85a837c74be6f4"),
    "dist --n 0 --method series --format text":
        (0, "b5df8dc278af105bdc9b61c59efd99cd7268a8a5592d15b4a4ec6cb66bc2bd8a"),
    "dist --n 7 --method series --format csv":
        (0, "b7302e4bbe64019fb36c6f7de21f51e61a91578acddfb77a873ac2d29f0d85ca"),
    "dist --n 0 --method series --format csv":
        (0, "bfc6cde36e9f6cf0f8592d280e7ceefc1ba7dc4a4b69636bc19faad202271326"),
    "dist --n 7 --method series --format json":
        (0, "28e5b013c6c3aac80076e3face45896becc166b0c7c7af7a372fa2a1aee3450c"),
    "dist --n 0 --method series --format json":
        (0, "81d6bfc5734cda91e13780a3d741ecafbaa61f5d7096a0ed297b334071f00c35"),
    "dist --n 7 --method closed --format text":
        (0, "3eaa030b7ec2cfdbf3d08a97c1ec626dd7ea85b619635190442b36dfa53e163b"),
    "dist --n 0 --method closed --format text":
        (0, "0a1101a38620db73a92d94856d47d3343d958278c5eaa1ad9f6f5e0e0a68baa8"),
    "dist --n 7 --method closed --format csv":
        (0, "b7302e4bbe64019fb36c6f7de21f51e61a91578acddfb77a873ac2d29f0d85ca"),
    "dist --n 0 --method closed --format csv":
        (0, "bfc6cde36e9f6cf0f8592d280e7ceefc1ba7dc4a4b69636bc19faad202271326"),
    "dist --n 7 --method closed --format json":
        (0, "1b61f593d6a8fe7bf17ff7271aee0397ccce380ec6359a805997457032be55fd"),
    "dist --n 0 --method closed --format json":
        (0, "b4b8118433d9ea659d9ec325670852f818819e535d200fab44f4ab0e578fcf1f"),
    "dist --n 5 --format text --precision 0":
        (0, "a52e758391448a29894261c69d5a6a02ab32e7886cdd7cb910a238b4dbd05d02"),
    "average --n 10 --format text":
        (0, "1183594c4edd2444c946ae36b238f5bcfe8eabc2464cd1a7677a36dbb0f08265"),
    "average --n 40 --format text --precision 5":
        (0, "cbd62f0ece0f483e84f574d209f8de765d8eca2bc26bfdd48a02ab4179dd04f9"),
    "limit --k 7 --format text --precision 5":
        (0, "569d80311186ae731f4f4d7a35921ee878774185430de66ff76727f3dda3fdce"),
    "sample --n 9 --samples 300 --seed 3 --format text":
        (0, "048ecfa8bceb54e24cee0004c5e926e950b2dadf122e8dc3de2a1a311b39ec1d"),
    "dist --n 5 --format csv --precision 0":
        (0, "69161b6376d2ac93475c6a7917c19ea2c524e2b0c62714d07962a024377627bc"),
    "average --n 10 --format csv":
        (0, "1183594c4edd2444c946ae36b238f5bcfe8eabc2464cd1a7677a36dbb0f08265"),
    "average --n 40 --format csv --precision 5":
        (0, "cbd62f0ece0f483e84f574d209f8de765d8eca2bc26bfdd48a02ab4179dd04f9"),
    "limit --k 7 --format csv --precision 5":
        (0, "569d80311186ae731f4f4d7a35921ee878774185430de66ff76727f3dda3fdce"),
    "sample --n 9 --samples 300 --seed 3 --format csv":
        (0, "fa066f0e293568e2634286fb0441f27c70936b0f2c2a8d80c55504cd4a9836bd"),
    "dist --n 5 --format json --precision 0":
        (0, "11a3cdea1555eef6ecb82ad11aecaa41663dc1d8669ff2f3a58606a4827a6abc"),
    "average --n 10 --format json":
        (0, "1997aad1d4bee1869ea1bbef1ee4261f48b930109a761818ebff460d7fe596a7"),
    "average --n 40 --format json --precision 5":
        (0, "5782ef0e736cb4599623901a77673ee51b58ce1d74a2cb93eb64d96eac6d68be"),
    "limit --k 7 --format json --precision 5":
        (0, "0a495fe7d3ce7b0bac21f3728602961b3c749a008f9b34104c2ca586ed06331f"),
    "sample --n 9 --samples 300 --seed 3 --format json":
        (0, "65142651fe369fa1203e3cb1d1bed1419e51ee16b595ac2c2a2659f343a3dad2"),
    # Sampler edges of its list of cuts, floor(P(spine >= k) 2^64): n = 0
    # and 1, point masses; n = 2, the smallest law with two spines; n = 36,
    # the last size whose cuts cover every k; and n = 37, the first whose
    # list is cut short.  Then n = 64, 65 and 513, past it.
    "sample --n 0 --samples 3 --seed 1":
        (0, "0e914612db280cdb03875f53d751a5e92982498f4241fc085040cfba6d54749e"),
    "sample --n 1 --samples 3 --seed 1":
        (0, "134c2a7cf64428d86fb325e139f0cc823c538556b6f54d129ca7beb7e3880990"),
    "sample --n 2 --samples 50 --seed 0 --format csv":
        (0, "194bc4bd2b5b4eef7057c62eed22052c7232772b437845c340746032804657e7"),
    "sample --n 36 --samples 200 --seed 5":
        (0, "150633eeaffc17e4cebe9025c712019c982f43cf1d5da95da1aa446a878b4e87"),
    "sample --n 37 --samples 200 --seed 5":
        (0, "ed6fcfdc077254200d8e78d7a666dc0c5b6628e1e4b88cf0661b485753f43ee3"),
    "sample --n 64 --samples 200 --seed 5":
        (0, "8f802cd1196b8946837da5d745df8b5fad04a628709abd02ba70e75a1e610dc7"),
    "sample --n 65 --samples 200 --seed 5":
        (0, "bacd93ce541168c483fbb8aafe0f5db2252fcbbd886ce7e9163242949c6c7897"),
    "sample --n 513 --samples 200 --seed 5 --format json":
        (0, "864028efffe4748dbf4a60b9753cd29c88b97117bbd8fe254de8acb1cbbae4c4"),
    "verify --max-n 6":
        (0, "9507ca0bbf479911e39e5bddd36ca9a5a72d167c1edb8546512820ddf64bfc58"),
    "enumerate --n 4":
        (0, "da0431a9462b3878c65211d4b210bae984afd82662445bc84488222b7532dbfb"),
    "average --n 1":
        (0, "5f688d6b8bc36f9ed4a995a1802851c5aa5d535687e33f34023e089da0edf0f1"),
    "limit --k 1":
        (0, "2063e9083cb92713c58ba64bdb8c251033814113f18a98cdfe87fb9cef021cc6"),
    "dist --n 15 --method exhaustive":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dist --n 5 --method exhaustive --cap 4":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


# The shapes of a json table: one row, which is both first and last; a
# sample table with no rows; sample's exact column at n = 4000; and a
# 10,098,033-byte table of about 1,100 batches.
JSON_TABLES = {
    "dist --n 1 --format json":
        (0, "7e5cd72de75dd63598a1f57471efb0aaa9f9a1cfce100f927098ce89faa9c32d"),
    "sample --n 0 --samples 3 --seed 1 --format json":
        (0, "7d52ea10c6adb3362e8e15fc92533fa5756ce888926bc242c0454e932084ae8b"),
    "sample --n 4000 --samples 3 --seed 9 --format json":
        (0, "7aeaa92c2afb545d8a85a82372d0034e0806505e3934d25492e3384818621955"),
    "dist --n 5000 --method closed --format json":
        (0, "bd2cbc17598a1ca62b837dd1c915745ce026f70a56356be7782bd27d7b53a8c4"),
}


# Help text, at a terminal width of 80 columns: argparse wraps it to the
# width that COLUMNS gives.
HELP = {
    "--help":
        (0, "fe31db01a956f4a538123e05ab6f5547597c0e03212610c102c7fcd17396a288"),
    "dist --help":
        (0, "7eb53f1f4ef807c248ecfd2d2a02edd650fa37c689a27dd82520d18ca6699535"),
    "average --help":
        (0, "c3051f0c02d28689f42775bf883885aee933b7e61d8cc41d1505d1c797a17ad7"),
    "limit --help":
        (0, "5cab755da4c779cc41b00c41b9932ed0b605d605155cbf2022dc7e5375dbcd3d"),
    "verify --help":
        (0, "0fcb506aaf7f8005c3f75885de95a374fec9f53731abeeb7f4df2547e3542f48"),
    "sample --help":
        (0, "2d3f3004e2e46bbbf4f48bcefb8d0bdb0ae21766269dc0d2e9044dff458dad53"),
    "enumerate --help":
        (0, "cd53b626cfcbde080311bf0d05d401b1027337653a85f17c7627d6e1c50560ff"),
}


GOLDEN = {**README, **SMALL, **EXHAUSTIVE, **ROUTE_SIZES, **BATCH_EDGES, **JSON_TABLES}


@pytest.mark.parametrize("line", GOLDEN)
def test_stdout_hash(line):
    out = io.StringIO()
    code = main(line.split(), out=out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (code, digest) == GOLDEN[line]


# The same bytes through the console's stdout, where main batches its writes
# in stdout's own buffer.
@STDOUT_MODES
@pytest.mark.parametrize("line", BATCH_EDGES)
def test_console_stdout_hash(line, unbuffered):
    cp = subprocess.run([sys.executable, "-m", "spinestat", *line.split()],
                        capture_output=True, env=stdout_mode_env(unbuffered))
    assert (cp.returncode, hashlib.sha256(cp.stdout).hexdigest()) == BATCH_EDGES[line]


@pytest.mark.parametrize("line", HELP)
def test_help_hash(line):
    cp = subprocess.run([sys.executable, "-m", "spinestat", *line.split()],
                        capture_output=True, env=subprocess_env(COLUMNS="80"))
    assert (cp.returncode, hashlib.sha256(cp.stdout).hexdigest()) == HELP[line]
