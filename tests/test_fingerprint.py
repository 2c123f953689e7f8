"""Byte fingerprint of a small end-to-end run.

`gen --count 20 --seed 0`, then `points --n 200` and `defect --ratio 1` in
the same directory; every output file except `manifest.json` (which holds
wall-clock timestamps) must match its pinned sha256.  A change that moves
output bytes on purpose updates these pins and says so in CHANGES.md.
Geometry changes move `.brep.json`, `_def` and `.xyz` files; `meta.json`,
`meta.npy`, `discards.csv` and the per-building `.meta.json` files depend
only on the plans and filters.  The `.obj` pins of `gen --obj` fix the
triangulation's vertex order, which `.xyz` bytes cannot see.
"""

import hashlib

from brepforge.cli import main as cli

PINS = {
    "bld00000003.brep.json": "a31b1079baff6b3fe90e2bbd4bdd88136fbd62b842d527a3673152a8627e172b",
    "bld00000003.meta.json": "6c6a7afae2362f1861052df465d7b2b9135d370dc0e8f1a522de1b013f26d438",
    "bld00000003.xyz": "ee63c2a3b1e6c484b69c531fdb7b5b2c12b709544974cbcd5f7e41f617cb9416",
    "bld00000003_def.brep.json": "4a6d467c9d1af27dea702beb8d809f515673a9c0803770f9a9ca752ef310d2d9",
    "bld00000005.brep.json": "b6195cf7bbe6e07f47a4ed9c5bbec87a026fd4e35109319b4481aede64c1923a",
    "bld00000005.meta.json": "5893e2367e93cdb8af7ceda5c7eea4633143b6f8e96d4ad83ae0f440a9dbbb29",
    "bld00000005.xyz": "a9083d074319cc9dcbcb2e76d153c54ab99f767e883a9129177c06214f81f2d5",
    "bld00000005_def.brep.json": "8178e980da462907aa1aa3639c157fb5116355ca56f829641c373b184224ec8f",
    "bld00000006.brep.json": "d4adc25233aaa9455d33819f95fd2578bbb2f38cb28e522f292ea480540fd71c",
    "bld00000006.meta.json": "050a94884d34e584fdb716ad4341fbc078d6be0a58ded7e57d33daed5d61d7e7",
    "bld00000006.xyz": "e3a94f632551f44569162e32087450728566ee83cdc63bca50a0f8a87434f1a8",
    "bld00000006_def.brep.json": "878dcdf05450de0a1486417dd0ea483db065acad4eb86c04bcb0577e2a801049",
    "bld00000007.brep.json": "89691780e2ae4c825f642570b9bc0acd4ca9ad6754dadc4a9296ace1aa051638",
    "bld00000007.meta.json": "b53829c4c7b2a2501433336616cd75fdf5059ecc6df036635e9e5ac09b1df8a9",
    "bld00000007.xyz": "b82407b6116256e626c58a46433092c23025c5a60bd80b0fcfcba10bf834cf52",
    "bld00000007_def.brep.json": "810ac68dcf160ac35ec2adc21fe2ca2e31cacf87bf103d29757e843c122d4617",
    "bld00000008.brep.json": "04d820fb458761b3448559f25d0a274480f77d2658677d025a5bfa4ba15823be",
    "bld00000008.meta.json": "bc08e66f740d6d981dde5b9db2557d3547742efd7de87fac89cff4757a88bfb6",
    "bld00000008.xyz": "144d3da23198751a69870779d04be6555cd6589d2ee9be34e36c5720cf50197d",
    "bld00000008_def.brep.json": "d98edad9f6d223302c5ed0a2644079c4a22d47456916fbecba9846880b1e6420",
    "bld00000009.brep.json": "6245e3fbfbcaa77503b70a2691ca3ebbbe2ee3d7d4f9448759f83ab285923ac7",
    "bld00000009.meta.json": "0815f174c4ccab3ee9e8755363b9c7c1c8218e0908f8c17a2cdda8af396579a9",
    "bld00000009.xyz": "36b87cdb0ebf8256255a634f59a7f3954d8ae23dba3cfd2b6361be12edf94fa7",
    "bld00000009_def.brep.json": "493d833608bd94fd1eb7e7aba6f2300bdbf510625d9325526607679165f30480",
    "bld00000010.brep.json": "a6d28db590151e5f706e823ee913be265ed7b8cd9e9a285463321ee4e9a99b53",
    "bld00000010.meta.json": "a92757b4bad26cd8f3f8482f49f6dfcee21dcfe74b640a22e30292e16cfa4f3f",
    "bld00000010.xyz": "b90da805ad804873bca061f717a0cba24b33408406a6701efdfbceba4d6dcbc1",
    "bld00000010_def.brep.json": "53451fda284395d21b81f08ba78d2d007a52738e8443039f45751e3e23f0501b",
    "bld00000016.brep.json": "a8a5b79d22b68fb38d24d50ea3eac58145a177db20e4543d63a3035c0f8865b9",
    "bld00000016.meta.json": "42ecfdd894f20a123991d23705506370ac01b774ef9524df59f5c4749f34e904",
    "bld00000016.xyz": "531a6ca32aef0c464bafe813bdf50dac35add600273b5e0eb95103dda7b42dd6",
    "bld00000016_def.brep.json": "dba2a07ffe4ef13e6f7809bb72b883544a1e58682c5a5be4e8c5a0a83e097548",
    "bld00000018.brep.json": "131ec1a0b6c498c5693c8e80ce6788d0d1d63cde03ca3b857a87f7ab94882466",
    "bld00000018.meta.json": "2a882d1e833a02cfaf1dffacade4bd45c43bceef5ed9005bbd17b82a53d5ffa5",
    "bld00000018.xyz": "b17c9ad38b88fc8cc4fba0321ed5335d76689d44c70464fc22400fef109aece9",
    "bld00000018_def.brep.json": "2fd57491b915a8b55e45ac82f65dc05fd348ce42bc986f780a8b6b1878cc6282",
    "discards.csv": "4a0dc7f3edd0889f238b76420c50376835e10a5831bfc8305bf78b30cc857478",
    "meta.json": "89f2d1c19b37a869e6fbd8c1aa2fe6a7daf3522de8ea62ab6954cc44f2d6a0dc",
    "meta.npy": "db66368e853033e502d0459a79b720a562abfab589a9921ca41f49a905adf76c",
}


def test_gen_points_defect_fingerprint(tmp_path):
    out = tmp_path / "fp"
    assert cli(["gen", "--count", "20", "--seed", "0", "--out", str(out)]) == 0
    assert cli(["points", str(out), "--n", "200"]) == 0
    assert cli(["defect", str(out), "--ratio", "1"]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }
    assert digests == PINS


OBJ_PINS = {
    "bld00000003.obj": "90af07178411934e02d310779a3ccb2ce6a5fdfe3e5b5b5f5311a17c23855f48",
    "bld00000005.obj": "751a6deffbe8f7aaa63582f35b8579d215b5e1cd3a0d0f8017ae87e42f2d9e67",
    "bld00000006.obj": "79a29669d1c86773842bec8af01051ccb12bff7ad403ae35f48143a6ca2491f9",
    "bld00000007.obj": "4abfc1c8e4c92b83139933ae11b4585964db94830d122678a092a642a9fccfc8",
    "bld00000008.obj": "f1c1fb36f99379f652b9037f63507ca7ff85d6479c26fe36b48fe4a3e3ba0d0c",
    "bld00000009.obj": "a905ed4b6b637240fa3d6cfa621e607b4dfe16daee9185aaa0d4429def612f80",
    "bld00000010.obj": "8a5ddfb8e1a301336e78905805e8d419bef47c7e5e0a7c3de0720af3033444c8",
    "bld00000016.obj": "688d6dbeb854419b0ddcb7596f03a536fc0aeec4373de57a9d24ca748aae68bb",
    "bld00000018.obj": "dbfaca749152412c6799e3b706b7940c8738ccce431eafc93e1f291395ff3fb3",
}


def test_gen_obj_fingerprint(tmp_path):
    out = tmp_path / "obj"
    assert cli(["gen", "--count", "20", "--seed", "0", "--out", str(out), "--obj"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.obj"))}
    assert digests == OBJ_PINS


def brep_digests(tmp_path, name, args):
    out = tmp_path / name
    assert cli(["gen", "--out", str(out), *args]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.brep.json"))}


def test_tall_building_fingerprint(tmp_path):
    assert brep_digests(tmp_path, "tall", ["--count", "1", "--seed", "150"]) == {
        "bld00000150.brep.json": "71b8ec71f776f57bd3f7999355d938e7f947b1b63108ae8547b460f70f7c970a",
    }


THICK_PINS = {
    "bld00000003.brep.json": "0a0016570bcf2e49dc264aa67fe2b9eb48c8a6e3bcdc3eaf2f6108e406a2e5c3",
    "bld00000005.brep.json": "13a61fe5fd2a06f05497321ba040b7bd3c960fb0893d9c7a1cba7801e60f8798",
    "bld00000006.brep.json": "99661ed285efda3d43e9c6732bf0932bb05b5738e4871bc177b5ff1aa4fca968",
    "bld00000007.brep.json": "43cc0651fd0e191edd0e00ae79cd15d2968fdd7c37c8dfc5f75aeaac1ec124cd",
    "bld00000008.brep.json": "10c22f42ce47651def8a70f9bf1278c66abfdbacdaea7fcbe7230c4331e98315",
    "bld00000009.brep.json": "ba938822e4d1e8d5c80fe8296f71d0c12ba578d7cffe87696db00372859e0070",
    "bld00000010.brep.json": "0e38e77ae80190b85dc8f445c6564fefdc3a9d4304de67329063803ea2ac2735",
    "bld00000016.brep.json": "4740df13012888180e06e4c460266f8df98d11c277163b9836cccc504ab16768",
    "bld00000018.brep.json": "20aaff01320c42842058bf35748e6d648c12133f76cfdd25ef850e49d80dc8b3",
}


def test_thick_wall_fingerprint(tmp_path):
    args = ["--count", "20", "--seed", "0", "--set", "wall_thickness=0.6"]
    assert brep_digests(tmp_path, "thick", args) == THICK_PINS
