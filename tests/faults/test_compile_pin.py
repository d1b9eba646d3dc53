"""Pinned digests of compiled fault models.

``FaultModel.compile`` must draw the same events from the same seed,
release after release: checkpoints, report job fingerprints and every
chaos run depend on it. Each digest is the sha256 of ``repr(events)``
for one model, camera count and seed over 150 frames, computed before
the onset processes were folded into one sampler.
"""

import hashlib

import pytest

from repro.faults import CHAOS_PRESETS, FaultModel

#: A model with every onset rate and steady probability above zero, so
#: every process of ``compile`` draws.
EVERY_PROCESS = FaultModel(
    crash_rate=0.02, partition_rate=0.02, loss_prob=0.05,
    delay_spike_rate=0.02, slowdown_rate=0.02, scheduler_crash_rate=0.02,
    burst_rate=0.02, corrupt_prob=0.03, duplicate_prob=0.03,
    reorder_prob=0.03, scheduler_partition_rate=0.02, freeze_rate=0.02,
    clock_drift_rate=0.02, flap_rate=0.02, fade_rate=0.02,
)

MODELS = {**CHAOS_PRESETS, "every": EVERY_PROCESS}

#: (model, number of cameras, seed) -> sha256 of ``repr(events)``.
PINNED = {
    ("light", 2, 0): "899d7182bda45dc67f2347306805ca39889a634f8fc4689065cd95b2c2890eab",
    ("light", 2, 1): "6474057d1aba4ef93b403deb86a6f2cb63f945cd546105f20ef09dca5f225685",
    ("light", 2, 7919): "1e533c9b161bd2a74baf75da06a571714f4bf259874f21121b7d18c19708a602",
    ("light", 5, 0): "00d7781d2f6df9de4b020013d75a248e2e380a307027fe030d3d1bc8949cbdf1",
    ("light", 5, 1): "ebf3d2c74aa3944b48140006d563c8765c9522295000ec56fcfc6ba5ae44b97c",
    ("light", 5, 7919): "f668f64371ca63a3d60b6c98c6ca0645e6b864f9bfddd803e8beb4455e80d5ff",
    ("heavy", 2, 0): "d2b10bd64493b99e3737a61c817928c889b247420d4bc594fe6a277f47a2dcfb",
    ("heavy", 2, 1): "7225c65a8da41621997da8d786b4cda8efb67aa7dd4118eb54b892db0465b21c",
    ("heavy", 2, 7919): "d3b705d061f5e78e17c1bb279559888c1dc22653f51346c7f323dfd048ef358a",
    ("heavy", 5, 0): "3d922a948e55094ea56757d1a54656e3330fa981d8f2d62ff65917d89c5b14dc",
    ("heavy", 5, 1): "1f775372d721493bb351a9ff46013eb6fc9096b43c2e7ab12f2944449d9e3c96",
    ("heavy", 5, 7919): "7493e688ef850b9d080cd7d1fe5b80de4a480e1179375754f4ff6e2a44ab1862",
    ("cameras", 2, 0): "58df4bc910680e02fad3666b2b0becd301179389e99c2c49f250b9d3db240130",
    ("cameras", 2, 1): "5cb55e4bd57d988b1c7111a6a0f8d0bcec002aeb2c083d8e0359179ad300b5df",
    ("cameras", 2, 7919): "4e61d88798e8e06ed27f8232133774b9aad2ea2f2752e31c189bb4c17eb451c5",
    ("cameras", 5, 0): "09627e12fcf6b1269b897b7bd0905cf6f93fe3d6d37549c09705aca55e20db05",
    ("cameras", 5, 1): "66b9838aaf6c86e9eb74eef74ef4fd98d1e7cf36c00fb002297df6e1636cf51f",
    ("cameras", 5, 7919): "d056a87f8e22cf3ceec4299c65ce92b9ba8465e3019402f9416f0e90005fcfb9",
    ("network", 2, 0): "4cb8a1e4d94f7855ac06383b34bc10f59e2a8134de4bea512e4df0ae8b3969e1",
    ("network", 2, 1): "c6935338177e1e4fbc637e102368b2db8ff7caab5b78524bafa99cbf98614d24",
    ("network", 2, 7919): "a6b743af7da9af6b1def8efe01c92548e7402a51e4e9fcb22f6b17ae35e87263",
    ("network", 5, 0): "bef56f34bf341df1f3c0d2c945bed23b49ea14b20f29ab05a71078259bd992c9",
    ("network", 5, 1): "2aff1df0533feb2034a493145eb48a41486c09152a2abd0ef3406a1a078cef02",
    ("network", 5, 7919): "6624616f9d4975540aaef147f73721006df3e38ed73ac7d266289fa33fc6ba39",
    ("gpu", 2, 0): "82cebf7650b00e019ee79cfbddee264c81001e0b9a3746121a6865e0e280fc53",
    ("gpu", 2, 1): "11c5c8dadb0784a5b0107b927503daac2bfaa7a97e0a92d4af8007391742fcfd",
    ("gpu", 2, 7919): "08c76d1cbcb14ce010d66f762dbdb4fa12ad9a51784348904f6a5774895c9513",
    ("gpu", 5, 0): "aa982049776f1651b87294491438eed7acda41a9a11e1ecf35fe6e5af9339fcf",
    ("gpu", 5, 1): "3125e79fe7952f395bf4f5c6d85d65708c6c5eff945a1dcad5ddacc83e27f0ac",
    ("gpu", 5, 7919): "612b362bf1241fac3e12e3f1d7b0ba84d1aa00dc5ddffb149979ac3c30f4964d",
    ("scheduler", 2, 0): "d08c040f575c1bc2ee5ed2151786fd456d4c585b965fc43f5cb1b5039c2ec293",
    ("scheduler", 2, 1): "b7478b7f8b6401ece96476c601c170f48f5de85c05d401430b90361a62b583ad",
    ("scheduler", 2, 7919): "518bc4b317c80da57358d50ce9ec7f7a6d2fc7ac5775a00b62e72ad2b40a83a8",
    ("scheduler", 5, 0): "d08c040f575c1bc2ee5ed2151786fd456d4c585b965fc43f5cb1b5039c2ec293",
    ("scheduler", 5, 1): "b7478b7f8b6401ece96476c601c170f48f5de85c05d401430b90361a62b583ad",
    ("scheduler", 5, 7919): "518bc4b317c80da57358d50ce9ec7f7a6d2fc7ac5775a00b62e72ad2b40a83a8",
    ("ingest", 2, 0): "1c61fa578f06425062024b1f556b801c320597374bc3cfd7cd09c940eb8081de",
    ("ingest", 2, 1): "b8aff05d6d21cf7838765df681dd661c7658189e0f10c713d79d8788ce3d111d",
    ("ingest", 2, 7919): "74f2c3fbafea1a55292bbe323c748fddf915d79ee46e27d277618592a96af132",
    ("ingest", 5, 0): "b8a5f4e7f9d1a58c330ec6156a7c878fc9c395e9b61e6e69998ef5cc4e0b302c",
    ("ingest", 5, 1): "270dcb8ce31dbda5ff4d3a84a029ee1e72899dd58df053709c44fa8d47a3fefd",
    ("ingest", 5, 7919): "96bbecaef4afb2dc7255861617221f793e5cf749b9fba3e52dde8d860a853ef9",
    ("wire", 2, 0): "a67a1c7babfe36e726574288ec42906a537f36edca466ebbdddb8d5a3734d669",
    ("wire", 2, 1): "07c8a80450264dd6804e949e6f3b2c21c0b938972199ae50026d8b649204a1fd",
    ("wire", 2, 7919): "055f66dcc5c4af67e24a65b9870942fb6acf125145f15c1edc30042bfd4e2bda",
    ("wire", 5, 0): "eb825ee29cca511431fb7a93b64f0617f17f8e497747b78e394e5f4f1d3377a8",
    ("wire", 5, 1): "07c8a80450264dd6804e949e6f3b2c21c0b938972199ae50026d8b649204a1fd",
    ("wire", 5, 7919): "5ea226f3bbd659c597a53985151935c5f53e0cef94b93714c113dfc154dbf521",
    ("fleet", 2, 0): "5b91fe14e4356d239b81909c85cfd394fa6d526af86542f2aa67bdbf6311ca54",
    ("fleet", 2, 1): "064e9286f2589c07199d6b037333ac5a917b96b26c7b9830ce713043e9f8b36a",
    ("fleet", 2, 7919): "1d0e5ccb80fc3b9b8de9a1676e3899695a57ecb1e7edb6c775dacdd15304e807",
    ("fleet", 5, 0): "fd99fd6c1e0171e37c946f1a554c39e6ae4a9768a90c8c8af427c5c4a325722e",
    ("fleet", 5, 1): "1eef7e3bd8101bc32ab161fd2fa77d3fdbabdbaa2c76e30f2658b51cbdd8f678",
    ("fleet", 5, 7919): "21b292dcc3c6b9a9a3daa53f09086aa0bcbd335d0dfd773b8678daaddbddead7",
    ("every", 2, 0): "317273098177e692bff18c90a6ea0eae10255d506a8df485610b4f663dede0d2",
    ("every", 2, 1): "41a8a862620aee3e0d3ef2611d548db73be390c42536572ace95702866c8f7e7",
    ("every", 2, 7919): "e5961a68d7fadb59f838e8c70e6d4d554de1668e421c18f51dc2b45ec87d1d83",
    ("every", 5, 0): "33fdb1554eb6111db18d7e843116f657292b945b114310dc1502b7fcea266dd8",
    ("every", 5, 1): "d489f8662df4d6bd10e4e070f1d96f87685d493e05ac918af6dc9b986a221636",
    ("every", 5, 7919): "b29de754d38e588e6c168d89a6fd56430715d6b237cf783ae2f1693af45da4e8",
}


def test_every_rate_is_drawn():
    rates = [
        name for name in EVERY_PROCESS.__dataclass_fields__
        if name.endswith(("_rate", "_prob"))
    ]
    assert len(rates) == 15
    assert all(getattr(EVERY_PROCESS, name) > 0.0 for name in rates)


def test_pins_cover_every_model():
    assert {name for name, _, _ in PINNED} == set(MODELS)


@pytest.mark.parametrize("name,n_cams,seed", sorted(PINNED))
def test_compiled_events_match_the_pin(name, n_cams, seed):
    events = MODELS[name].compile(list(range(n_cams)), 150, seed).events
    digest = hashlib.sha256(repr(events).encode()).hexdigest()
    assert digest == PINNED[(name, n_cams, seed)]
