"""Pin every scheduling decision: trace digests of all 28 configurations.

The engine resumes the runnable rank with the smallest ``(true time,
rank)`` key, and every trace timestamp follows from that order.  A change
to the scheduler that picks even one different rank moves some
timestamp, so the SHA-256 of each configuration's ``.rtrc`` bytes at a
fixed seed pins the whole schedule.  The table was generated with the
previous scan-all-ranks dispatcher; the ready-heap dispatcher must
reproduce it exactly.
"""

import hashlib

import pytest

from repro.apps.registry import all_variants
from repro.tracer import ColumnarTrace, write_rtrc

SEED = 7

#: (variant label, nranks) -> SHA-256 of the ``.rtrc`` file
DIGESTS = {
    ("FLASH-HDF5 fbs", 4): "633fe405077acf1e2490b58c8b609322ece296231666f78d5e94da82064e6c36",
    ("FLASH-HDF5 nofbs", 4): "0d239088152b28808557f84153f2ef4d8a47b888565c9dd55ee3124e7ed74bfd",
    ("Nek5000-POSIX", 4): "9929beca3b73d716684e0d9046c7ca0ef3eebc2cecdf38c32412cc6cf9700523",
    ("QMCPACK-HDF5", 4): "6c41c3f3563b8607170f2aecb7248e0ed7a791d1151db39fc1ee78665cd931e6",
    ("VASP-POSIX", 4): "59fe37ad167e1ab7e84a10dc6afb24b0e918989ac2c2b9f2b18fb4667dc8a9e4",
    ("LBANN-POSIX", 4): "f0b4f01e7124db3e5145e685927264a9b8cbba73312f33dd0dc026f287fce942",
    ("LAMMPS-ADIOS", 4): "6fa028d214e7e8354a86f437e2fcd7ee756bc4b58b72a975c79d582b9adca5b0",
    ("LAMMPS-NetCDF", 4): "d65d15c97e0a4ecd8d01a2393ba4d7f63450356e06537d19a125ec25dda86634",
    ("LAMMPS-HDF5", 4): "4be25f71a612cf758f2467b09dc3d3141e6b56ec693ff874818ddc4cddca12e8",
    ("LAMMPS-MPI-IO", 4): "624c19aa190770917f530ffa777e7af0b1b05326cdd12085feed32edf3efd813",
    ("LAMMPS-POSIX", 4): "204d2d4f0edbce96bd6dbdb24fa14043d8413a56d859f6c6654e5c65052d7d52",
    ("ENZO-HDF5", 4): "8332b14158f0bcdcb06fdcace7c0070f9035d952ebe29863de9dce54cac9ec6a",
    ("NWChem-POSIX", 4): "c2a79ffdb168683f696d0225bb7b1aea0b9dfe66a3f031fc3a8bc354ef7d314d",
    ("ParaDiS-HDF5", 4): "5293ffd7804467f83bb6fd4feeb3dadffd0c0c2838cfe5b8a149865fb3b94ff7",
    ("ParaDiS-POSIX", 4): "6dfdc491492e78b2ae72897ad1c3a64debf9fbbcd087ccc042b93a73ed9cce84",
    ("Chombo-HDF5", 4): "13211c76847fca5d6b2ee05d0e4cd621517a248f79b53d4f675033e00a562f94",
    ("GTC-POSIX", 4): "303a03d88898713b5bef58a501424cd6ceb0dab4ff22e91463d73702d060d381",
    ("GAMESS-POSIX", 4): "87740f80ce4f57666cb00242b111efe34630669577ac0093fd3fdf308bcfa1a6",
    ("MILC-QCD-POSIX Parallel", 4): "c7c65d8d8da978572bb4119fb8364ff3a50e7fa27ff074a2cbbc6feef7ad2586",
    ("MILC-QCD-POSIX Serial", 4): "7235ccf9069ffe75d2980ac49dad54c176a2a5c8ffaa93469028dcf49dcd47ee",
    ("MACSio-Silo", 4): "a8bd5a3aad51f88a73d58184fa9bf12939d4d4a0ccf0704af60345e5d4c8f484",
    ("pF3D-IO-POSIX", 4): "dde94a3cbb7848cb5241e614276d79aa4653ea9ac802c8b4d34cfe559ee0787e",
    ("HACC-IO-MPI-IO", 4): "bcb062fdde7c2995cd4f660ae824937272881e3c14b33779862493c21d03860d",
    ("HACC-IO-POSIX", 4): "b17b7c228f735089d3a34548a15f9a6b8c67303709022ae32df71c3e6e257e1d",
    ("VPIC-IO-HDF5", 4): "5bc916bc2de55f7a3a7dceae6696956c37108ee5fe396120e86d02faaf289733",
    ("Ckpt-IO-POSIX shared", 4): "ae7cfac38c6bdb63356df6327a8734f252929d5f1e2b25b461ef631fafe2f846",
    ("Ckpt-IO-POSIX fpp", 4): "27a376256f6fdb492ac2dbb4f37782a4a8247f55075eec3c97e024295eb5625d",
    ("Ckpt-IO-POSIX wal", 4): "c8f9174b4f2aba7e07990a2079faa83875240eede4e706a7af4ca17e436ab2cd",
    ("FLASH-HDF5 fbs", 8): "214ab9555aaa52fe5add07476297317993ebe8c1d5bc8e3d63f782ebba8e0a58",
    ("FLASH-HDF5 nofbs", 8): "7430c08cbb74f7c87839d3985415a30a225bdefceac4fb3e44ce6fb0e919869a",
    ("Nek5000-POSIX", 8): "4d3d7783d5a5b11d10c35552053497ca587f40a6bbf543083151fe1e41bd6aa6",
    ("QMCPACK-HDF5", 8): "c8409a963ba23ed174cce529503e3d90f67ede78af10a1a97e568a0b762a2478",
    ("VASP-POSIX", 8): "2163a9143aa3e0aa9c94d2c03135d167799ea64f7ac2e07349da84f170a8c757",
    ("LBANN-POSIX", 8): "09292889008bac457cbc01075ff2433364df8ecfb6160cefa487636b733c811f",
    ("LAMMPS-ADIOS", 8): "f0cce4033aa92891bebb230bef23679418775629e767f8e081483437dbb25985",
    ("LAMMPS-NetCDF", 8): "a9455c14eda3e8506245d9bcc02315b08d08ddd59ad22ce0d82680923a7bcc52",
    ("LAMMPS-HDF5", 8): "58844adb6a8486f1e870b77958a5ac8feb53a8205652aa6d4fa274972b03e843",
    ("LAMMPS-MPI-IO", 8): "ec6ff80a2188b8fa5aa60518927a2471201129780e9c902f08b1ed83ea101680",
    ("LAMMPS-POSIX", 8): "34bcb89b98af4be22578befe9cb94e5fa58703066ece09cb1fee48c7f3ecada4",
    ("ENZO-HDF5", 8): "25d3c8630e6a8d9c8d7aa8c74e0facc929e30dfe563fd1858d062622526aa86d",
    ("NWChem-POSIX", 8): "12fbc5a29a1909611364bebd1ee8ffa14b5319fbe952070188c527cafea4aa79",
    ("ParaDiS-HDF5", 8): "e84230cd6305b1b81223af012013d012d69ab9af24e42080dcabb338ed0e043d",
    ("ParaDiS-POSIX", 8): "a5d0e12904d98367b9ded12d4402ad76de079f5d61a66ccf1167c525ee97316a",
    ("Chombo-HDF5", 8): "fe4e0bc042db8b56411d178f3fe8635c1da40b55638877758c328562218beb8e",
    ("GTC-POSIX", 8): "74a1174dca248a6fd6225ee0e666a551a4b0c89fe31d779ccf13493f11b8c86b",
    ("GAMESS-POSIX", 8): "ee49d9204bad6d6d0e898b18de479457ca90c49e0225cb352d7ae341a5b9fae7",
    ("MILC-QCD-POSIX Parallel", 8): "968a1b456e39844ebcfcf06a8ae4fc33680d03e4866f57bd030b0824aba07fbf",
    ("MILC-QCD-POSIX Serial", 8): "9f43426e7d41e4063155f0e3d60c5e84068b06dfae14517bf53aa902b7894229",
    ("MACSio-Silo", 8): "4e2bff972d5df61fd39925b71f98d477d6dc5847be287727c0cdab7481d17cc0",
    ("pF3D-IO-POSIX", 8): "8258b57ef81f25553228c17ca1709b0620924ece36603ab72751114d510b1b66",
    ("HACC-IO-MPI-IO", 8): "f4f28f433fb81c46da06b1014e7b14285beabfd3f1d60d3ec8b23fe2a7ec4cef",
    ("HACC-IO-POSIX", 8): "41c8f13a94a10b778e6819fa359e7169439bef7b0301f36cb6450dff534f0667",
    ("VPIC-IO-HDF5", 8): "82a82772819030a280df76f4cb4f40b2cd7847c8640ecff43c2a9d52945c0bbf",
    ("Ckpt-IO-POSIX shared", 8): "76d2cc52b95a899cb01cb1ffc4b4cdbc5622c6e3c52f791e2a09659ac6246173",
    ("Ckpt-IO-POSIX fpp", 8): "6901af290330803c8935935c916cf0b17a33536c6d696353fc916729fa0b7c38",
    ("Ckpt-IO-POSIX wal", 8): "04cbf09451cc3f01f7e9500541a1b49f12997dd20d7dd96004fe7842de192446",
}

VARIANTS = {v.label: v for v in all_variants()}


def test_table_covers_every_configuration():
    assert {label for label, _ in DIGESTS} == set(VARIANTS)
    assert len(VARIANTS) == 28


@pytest.mark.parametrize(("label", "nranks"), sorted(DIGESTS),
                         ids=lambda p: str(p))
def test_rtrc_digest(label, nranks, tmp_path):
    trace = VARIANTS[label].run(nranks=nranks, seed=SEED)
    path = tmp_path / "trace.rtrc"
    write_rtrc(ColumnarTrace.from_trace(trace), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == DIGESTS[(label, nranks)]
