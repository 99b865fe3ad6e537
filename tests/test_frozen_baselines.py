"""Frozen results of every optimizer on a fixed grid.

Only SequOOL and noiseless StroquOOL have straight-line reference
implementations (tests/reference_traces.py).  This module pins the rest --
SOO, DOO, uniform and noisy StroquOOL -- alongside them: for each run it
compares the openings, raw evaluations, deepest depth, budget units, the
repr of the recommendation and of its value estimate, and a SHA-256 of the
repr of the full event trace against values recorded from the library.
Any change to a schedule, a tie-break or the bookkeeping shows up here.
"""

import hashlib

import pytest

from zipftree.objectives import NoiseModel, get_objective
from zipftree.optimizers import (RunConfig, doo_run, sequool_run, soo_run,
                                 stroquool_run, uniform_run)

NOISE_SEED = 2018

RUNNERS = {
    "sequool": lambda obj, cfg: sequool_run(obj, cfg),
    "soo": lambda obj, cfg: soo_run(obj, cfg),
    "doo(1,0.6)": lambda obj, cfg: doo_run(obj, cfg, 1.0, 0.6),
    "doo(1,1/3)": lambda obj, cfg: doo_run(obj, cfg, 1.0, 1 / 3),
    "uniform": lambda obj, cfg: uniform_run(obj, None, cfg),
    "uniform:b=0.5": lambda obj, cfg: uniform_run(
        obj, NoiseModel(0.5, seed=NOISE_SEED), cfg),
    "stroquool": lambda obj, cfg: stroquool_run(obj, None, cfg),
    "stroquool:b=0.5": lambda obj, cfg: stroquool_run(
        obj, NoiseModel(0.5, seed=NOISE_SEED), cfg),
}


def digest(res):
    return (res.openings_used, res.evaluations_used, res.deepest_depth,
            res.budget_units_used, repr(res.recommendation),
            repr(res.recommendation_value_estimate),
            hashlib.sha256(repr(res.trace).encode()).hexdigest())


# (objective, algorithm, n) -> digest; StroquOOL needs n >= 8
FROZEN = {
    ('garland', 'sequool', 1): (
        2, 6, 2, 2, '(0.5,)', '0.7515005502907424',
        '613a3be02e8e6c27c87974020bd12c7c6e97201f214949700d121c8bb3e5ebbd'),
    ('garland', 'sequool', 2): (
        2, 6, 2, 2, '(0.5,)', '0.7515005502907424',
        '613a3be02e8e6c27c87974020bd12c7c6e97201f214949700d121c8bb3e5ebbd'),
    ('garland', 'sequool', 5): (
        4, 12, 3, 4, '(0.4629629629629629,)', '0.8229054206566008',
        '4fe4d46ad1fd48224f940d9817f982788baa138412a2cf832a5146b89efacf4a'),
    ('garland', 'sequool', 13): (
        8, 24, 5, 8, '(0.5740740740740741,)', '0.8959183322526871',
        'a2bf2c2779fa47ce6e3fd5225c3086d9adb826db282b4ec4e6e1e7c2ad0c36b1'),
    ('garland', 'sequool', 50): (
        22, 66, 12, 22, '(0.47123857587201584,)', '0.9955956118395041',
        '7f8b1bb33ec3d112532cc4dcbc895c066211af03d7255dff0e9adca8828fb59a'),
    ('garland', 'sequool', 200): (
        89, 267, 35, 89, '(0.5235987755982989,)', '0.9977723791254037',
        '4b6f00053cc0ced6e9b201ddce263c55b1ab17d1e3fb269076ffbcc3bb280a41'),
    ('garland', 'sequool', 1000): (
        472, 1416, 134, 472, '(0.5235987755982989,)', '0.9977723791254037',
        '81bc9b4feb5b2e23c28c85b3f59be09eba43b29d98773dacabf8b2064a9b4d51'),
    ('garland', 'sequool', 5000): (
        2527, 7581, 550, 2527, '(0.5235987755982989,)', '0.9977723791254037',
        '5e4c50bbdaf37155144ff01c093cd1297038514fbb0326aefd523277b853a785'),
    ('garland', 'soo', 1): (
        1, 3, 1, 1, '(0.5,)', '0.7515005502907424',
        '9bd217bfb98f3f1361cac3072f59d99b046967d935d2789570442c6b9b842c7c'),
    ('garland', 'soo', 2): (
        2, 6, 2, 2, '(0.5,)', '0.7515005502907424',
        '613a3be02e8e6c27c87974020bd12c7c6e97201f214949700d121c8bb3e5ebbd'),
    ('garland', 'soo', 5): (
        5, 15, 3, 5, '(0.4629629629629629,)', '0.8229054206566008',
        'eafc1bac07387735b64c5d4604d6a203cfb6e6d7e3fc449007ab8a1edc40b389'),
    ('garland', 'soo', 13): (
        13, 39, 4, 13, '(0.5740740740740741,)', '0.8959183322526871',
        'd3ddabca27c233d25657227904cbc626c498bc0dc0b69290ce6f70204178d834'),
    ('garland', 'soo', 50): (
        50, 150, 8, 50, '(0.47119341563786005,)', '0.9836642560676234',
        '0be2cbfb3c05f84bd1fdeed8626b2f3a59676181d4c23cd899d3f37be0890ac9'),
    ('garland', 'soo', 200): (
        200, 600, 14, 200, '(0.5235987312483104,)', '0.9973654937378332',
        '1f3b9a28745a6e13343bef3a795bdf5f2e976e07a0500cbe7198abe345aebc39'),
    ('garland', 'soo', 1000): (
        1000, 3000, 32, 1000, '(0.5235987755982987,)', '0.9977723683945625',
        '8f13decfa67b0a0c4b66373c01387fb9785e82025ae43ae7d8e6e96a0485098b'),
    ('garland', 'soo', 5000): (
        5000, 15000, 71, 5000, '(0.5235987755982989,)', '0.9977723791254037',
        '6acaf46c4fc995b54ce1e0545b7e0f9734fd221adb128a1c242ac1aa07e45ade'),
    ('garland', 'doo(1,0.6)', 1): (
        1, 3, 1, 1, '(0.5,)', '0.7515005502907424',
        '9bd217bfb98f3f1361cac3072f59d99b046967d935d2789570442c6b9b842c7c'),
    ('garland', 'doo(1,0.6)', 2): (
        2, 6, 2, 2, '(0.5,)', '0.7515005502907424',
        '613a3be02e8e6c27c87974020bd12c7c6e97201f214949700d121c8bb3e5ebbd'),
    ('garland', 'doo(1,0.6)', 5): (
        5, 15, 4, 5, '(0.5740740740740741,)', '0.8959183322526871',
        '342a472c07cc4b0c8815a9ac2d089e08be09cf397e2734841bd20ea07908b69a'),
    ('garland', 'doo(1,0.6)', 13): (
        13, 39, 5, 13, '(0.47119341563786005,)', '0.9836642560676234',
        '8e49257d67b3ab61470bdc586fd9d78a854a5c1ed45be68a298108398d6a7fb7'),
    ('garland', 'doo(1,0.6)', 50): (
        50, 150, 24, 50, '(0.5235987755991958,)', '0.9977705612737474',
        'edc9ffe5edeb462ab0fcf2e97ba44ea8ae9b44440babef4326a8d409d600c202'),
    ('garland', 'doo(1,0.6)', 200): (
        200, 600, 38, 200, '(0.5235987755982989,)', '0.9977723791254037',
        'dd0e801f502c1ee4333ce8e18b0b503b02177ea980c1c016245cb425c4034111'),
    ('garland', 'doo(1,0.6)', 1000): (
        1000, 3000, 41, 1000, '(0.5235987755982989,)', '0.9977723791254037',
        'd747f002424dfba71b0b3bd3d3ea84891cd672faa28b47b2ad8c88f63dd32846'),
    ('garland', 'doo(1,0.6)', 5000): (
        5000, 15000, 42, 5000, '(0.5235987755982989,)', '0.9977723791254037',
        '0ec0a4ec466d5815ed257ebb68333b3c59003f2ef6d801f6b35abf5a6b41d6f0'),
    ('garland', 'doo(1,1/3)', 1): (
        1, 3, 1, 1, '(0.5,)', '0.7515005502907424',
        '9bd217bfb98f3f1361cac3072f59d99b046967d935d2789570442c6b9b842c7c'),
    ('garland', 'doo(1,1/3)', 2): (
        2, 6, 2, 2, '(0.5,)', '0.7515005502907424',
        '613a3be02e8e6c27c87974020bd12c7c6e97201f214949700d121c8bb3e5ebbd'),
    ('garland', 'doo(1,1/3)', 5): (
        5, 15, 5, 5, '(0.47119341563786005,)', '0.9836642560676234',
        'e9f993883e308fd5f78e53b45f9ff2466fca5e58ca108bd6139af8ff2f092fe5'),
    ('garland', 'doo(1,1/3)', 13): (
        13, 39, 13, 13, '(0.47123920309749023,)', '0.9956252392013019',
        '2ccc146e2cb675d65737da75899f8bed4f7ebaac388aa4f15f8edbeac498fa4e'),
    ('garland', 'doo(1,1/3)', 50): (
        50, 150, 38, 50, '(0.47123889803846897,)', '0.996691187783514',
        '9ad3e7e923fea38250c064fe39d5abcfb42b8a8c8f1b6ea0ca9db1495ca77d0c'),
    ('garland', 'doo(1,1/3)', 200): (
        200, 600, 40, 200, '(0.47123889803846897,)', '0.996691187783514',
        '6dc71854011e34d8d03b67aa9eb5f524da429e215ed164015408250048bd11b8'),
    ('garland', 'doo(1,1/3)', 1000): (
        1000, 3000, 42, 1000, '(0.47123889803846897,)', '0.996691187783514',
        '6349ee11e27954eb071456128f7a16137cb7b316192b4b79527aa88608b670c7'),
    ('garland', 'doo(1,1/3)', 5000): (
        5000, 15000, 44, 5000, '(0.47123889803846897,)', '0.996691187783514',
        'e181895d7be2e2a3cb6cc01d62f7dd88b659bc25606cd846a50faac8f11ec796'),
    ('garland', 'uniform', 1): (
        1, 4, 1, 1, '(0.5,)', '0.7515005502907424',
        '17404528f38a69b419eb89136d170bdf60b46001ebaa96cf9efacb1544648b1a'),
    ('garland', 'uniform', 2): (
        2, 7, 2, 2, '(0.5,)', '0.7515005502907424',
        '85f7437ca95cdc1fab5773b01520f205f59808431f0c62d5d41655cbbf0e4e45'),
    ('garland', 'uniform', 5): (
        5, 16, 3, 5, '(0.5,)', '0.7515005502907424',
        '4a60d24dcf092640caa69089efdd2a8b1078b203a261a64dea72b06891a3f3fb'),
    ('garland', 'uniform', 13): (
        13, 40, 3, 13, '(0.5740740740740741,)', '0.8959183322526871',
        '735110264b030da4ecada4a2a1841341114c13be289ca50db06b760249b43864'),
    ('garland', 'uniform', 50): (
        50, 151, 5, 50, '(0.5246913580246914,)', '0.9337310599085452',
        '4d78d299678266d9a953b54d39f5101664fa42ca9df40ccd7a8f91e0ca4842c7'),
    ('garland', 'uniform', 200): (
        200, 601, 6, 200, '(0.47119341563786005,)', '0.9836642560676234',
        '3dd06af25a284dbac5ddc0ea4260c67c7df768e295a7783d830315d4fe26ba43'),
    ('garland', 'uniform', 1000): (
        1000, 3001, 7, 1000, '(0.47119341563786005,)', '0.9836642560676234',
        '4bc06e5373907478455b6a65e03480f0af570d7ad80e3621373c9b96b42f18b1'),
    ('garland', 'uniform', 5000): (
        5000, 15001, 9, 5000, '(0.5236244474927603,)', '0.9879777405755117',
        'cb65fe82d5655f66e0e14cdd2835a2b6d56c50295c37931b6c87e15341524657'),
    ('garland', 'uniform:b=0.5', 1): (
        1, 4, 1, 1, '(0.5,)', '1.1621150333706796',
        '17404528f38a69b419eb89136d170bdf60b46001ebaa96cf9efacb1544648b1a'),
    ('garland', 'uniform:b=0.5', 2): (
        2, 7, 2, 2, '(0.5,)', '1.1621150333706796',
        '85f7437ca95cdc1fab5773b01520f205f59808431f0c62d5d41655cbbf0e4e45'),
    ('garland', 'uniform:b=0.5', 5): (
        5, 16, 3, 5, '(0.5,)', '1.1621150333706796',
        '4a60d24dcf092640caa69089efdd2a8b1078b203a261a64dea72b06891a3f3fb'),
    ('garland', 'uniform:b=0.5', 13): (
        13, 40, 3, 13, '(0.31481481481481477,)', '1.2683142215041934',
        '735110264b030da4ecada4a2a1841341114c13be289ca50db06b760249b43864'),
    ('garland', 'uniform:b=0.5', 50): (
        50, 151, 5, 50, '(0.5246913580246914,)', '1.3866888781059794',
        '4d78d299678266d9a953b54d39f5101664fa42ca9df40ccd7a8f91e0ca4842c7'),
    ('garland', 'uniform:b=0.5', 200): (
        200, 601, 6, 200, '(0.5246913580246914,)', '1.3866888781059794',
        '3dd06af25a284dbac5ddc0ea4260c67c7df768e295a7783d830315d4fe26ba43'),
    ('garland', 'uniform:b=0.5', 1000): (
        1000, 3001, 7, 1000, '(0.5759030635573845,)', '1.4111182371677022',
        '4bc06e5373907478455b6a65e03480f0af570d7ad80e3621373c9b96b42f18b1'),
    ('garland', 'uniform:b=0.5', 5000): (
        5000, 15001, 9, 5000, '(0.5236244474927603,)', '1.4315313052866343',
        'cb65fe82d5655f66e0e14cdd2835a2b6d56c50295c37931b6c87e15341524657'),
    ('garland', 'stroquool', 13): (
        2, 7, 2, 3, '(0.5,)', '0.7515005502907424',
        'bbb97473870d0685098c188cb6640e1f9becbe5586b8aa9a5c30b879cd5b7a4d'),
    ('garland', 'stroquool', 50): (
        2, 7, 2, 3, '(0.5,)', '0.7515005502907424',
        'bbb97473870d0685098c188cb6640e1f9becbe5586b8aa9a5c30b879cd5b7a4d'),
    ('garland', 'stroquool', 200): (
        4, 20, 3, 8, '(0.4629629629629629,)', '0.8229054206566008',
        '42fdcc05f25a19a7a2c0116b2df89e09bfb05acef6d86ae0efe2d55c0b8dc935'),
    ('garland', 'stroquool', 1000): (
        12, 93, 7, 37, '(0.5759030635573845,)', '0.9628494634690729',
        '1898e825a4bfe23f3fb815763d7665b196ce0674e9316738cd506634d193057f'),
    ('garland', 'stroquool', 5000): (
        61, 612, 25, 244, '(0.5235987755980156,)', '0.9977713627593015',
        'e14d7b6fb9f4053b116d24ffbfbbc8fa3489cadf7c8c60d0c862d60c0f7e961c'),
    ('garland', 'stroquool:b=0.5', 13): (
        2, 7, 2, 3, '(0.7222222222222222,)', '1.1015379435674286',
        'd2c866a468463f33143e2867772391ef793ea9a887313fe938bf6a0b005aa038'),
    ('garland', 'stroquool:b=0.5', 50): (
        2, 7, 2, 3, '(0.7222222222222222,)', '1.1015379435674286',
        'd2c866a468463f33143e2867772391ef793ea9a887313fe938bf6a0b005aa038'),
    ('garland', 'stroquool:b=0.5', 200): (
        4, 19, 3, 7, '(0.5,)', '1.2097724343472591',
        'afda6b7fb9962d5376a8a66820da1411b71be62b41af58db1feec8d98acbda86'),
    ('garland', 'stroquool:b=0.5', 1000): (
        12, 93, 7, 37, '(0.47530864197530864,)', '1.090753891426907',
        '1e8e83bdce37f2e02d3f58d7488267de8ebe3ff590ceebbfb09de938f5954a4d'),
    ('garland', 'stroquool:b=0.5', 5000): (
        61, 612, 25, 244, '(0.4173984471430472,)', '0.975328454937571',
        'ddbf78258ff1fa3b442c2dde761ddec7f13b34ebe8589a493b71e4b986e38d93'),
    ('wrapped-sine', 'sequool', 1): (
        2, 6, 2, 2, '(0.5,)', '0.0',
        '613a3be02e8e6c27c87974020bd12c7c6e97201f214949700d121c8bb3e5ebbd'),
    ('wrapped-sine', 'sequool', 2): (
        2, 6, 2, 2, '(0.5,)', '0.0',
        '613a3be02e8e6c27c87974020bd12c7c6e97201f214949700d121c8bb3e5ebbd'),
    ('wrapped-sine', 'sequool', 5): (
        4, 12, 3, 4, '(0.5,)', '0.0',
        'd3447bbba8f6fa64a40a5bfd07be34e52a3c86956f01b06f49aed7ef0d5039ad'),
    ('wrapped-sine', 'sequool', 13): (
        8, 24, 5, 8, '(0.5,)', '0.0',
        '605b722ade043d66d4c52186e08a19ca4aeaa57360fbb1f3a36aabd679ab7abd'),
    ('wrapped-sine', 'sequool', 50): (
        22, 66, 12, 22, '(0.5,)', '0.0',
        'd34d80b84b831355f73aa8829d56c0fc595f0795c1681f11d609ec76fe7c461d'),
    ('wrapped-sine', 'sequool', 200): (
        89, 267, 35, 89, '(0.5,)', '0.0',
        '3a790278376d90285b9401e969555cd86835c092ca9da9b1a2e5ba4e98abccbe'),
    ('wrapped-sine', 'sequool', 1000): (
        472, 1416, 134, 472, '(0.5,)', '0.0',
        'ea72a68eb3a6f14b7df06e7246d0440a67fc39c84cc9a2c778359f8a16966d91'),
    ('wrapped-sine', 'sequool', 5000): (
        2527, 7581, 550, 2527, '(0.5,)', '0.0',
        '7a9766f1723171c9f981146055c83343d6ca28f97cf7856dcf9af71a5039d997'),
    ('wrapped-sine', 'soo', 1): (
        1, 3, 1, 1, '(0.5,)', '0.0',
        '9bd217bfb98f3f1361cac3072f59d99b046967d935d2789570442c6b9b842c7c'),
    ('wrapped-sine', 'soo', 2): (
        2, 6, 2, 2, '(0.5,)', '0.0',
        '613a3be02e8e6c27c87974020bd12c7c6e97201f214949700d121c8bb3e5ebbd'),
    ('wrapped-sine', 'soo', 5): (
        5, 15, 3, 5, '(0.5,)', '0.0',
        '32f8e78f7de4af7c76ec31ab8f0f4f26d99e1b33a879138b6dc4ee59f203c5d9'),
    ('wrapped-sine', 'soo', 13): (
        13, 39, 4, 13, '(0.5,)', '0.0',
        '82a5b3365893d2473c8184258a0f10eebdaa436aa7b4798d786d784343282a2b'),
    ('wrapped-sine', 'soo', 50): (
        50, 150, 8, 50, '(0.5,)', '0.0',
        'ab4621520bcbc45350a0fb9db849454084d283dc736a49e15cfcb03afce8fe1e'),
    ('wrapped-sine', 'soo', 200): (
        200, 600, 14, 200, '(0.5,)', '0.0',
        '79d219cc4de73e2360e0f23231ec31fa257f3e9074853eae0454ae0517af45a1'),
    ('wrapped-sine', 'soo', 1000): (
        1000, 3000, 32, 1000, '(0.5,)', '0.0',
        '4154031ffc9ec6fe0cee811f3890aa42ac7a098edd3049dabb29dedd2850596b'),
    ('wrapped-sine', 'soo', 5000): (
        5000, 15000, 71, 5000, '(0.5,)', '0.0',
        'a2c29017d6c364adee71c6a438860f235ea9527d2d8a87a8789ca83d9dbeced2'),
    ('wrapped-sine', 'doo(1,0.6)', 1): (
        1, 3, 1, 1, '(0.5,)', '0.0',
        '9bd217bfb98f3f1361cac3072f59d99b046967d935d2789570442c6b9b842c7c'),
    ('wrapped-sine', 'doo(1,0.6)', 2): (
        2, 6, 2, 2, '(0.5,)', '0.0',
        '613a3be02e8e6c27c87974020bd12c7c6e97201f214949700d121c8bb3e5ebbd'),
    ('wrapped-sine', 'doo(1,0.6)', 5): (
        5, 15, 5, 5, '(0.5,)', '0.0',
        'c3c3d41bdbb96c65c2e49996af2e7fee9b13bddfda6a8d8b2735c764720ba502'),
    ('wrapped-sine', 'doo(1,0.6)', 13): (
        13, 39, 7, 13, '(0.5,)', '0.0',
        'a6d9900c3bbf6532b4cc2d93b79b6ab8770f589a91aeaea97b54741adc810db9'),
    ('wrapped-sine', 'doo(1,0.6)', 50): (
        50, 150, 11, 50, '(0.5,)', '0.0',
        'a7cb31a538c847c83135979bdae87bc3f53decb2d794e8eee39d8876f393ca30'),
    ('wrapped-sine', 'doo(1,0.6)', 200): (
        200, 600, 27, 200, '(0.5,)', '0.0',
        'da2c085cad38a2c9032523c683e901754c8d3087e2d5f0aaa244b5187d491018'),
    ('wrapped-sine', 'doo(1,0.6)', 1000): (
        1000, 3000, 30, 1000, '(0.5,)', '0.0',
        '74f0e8190bb7b2fffa5697c918149bfea6ddff4165364566672b271a508ace64'),
    ('wrapped-sine', 'doo(1,0.6)', 5000): (
        5000, 15000, 32, 5000, '(0.5,)', '0.0',
        'f32d3beb8d63c2fa15d7f6b8ee7c6b9e57239de55b7547362422182cbc6b76c2'),
    ('wrapped-sine', 'doo(1,1/3)', 1): (
        1, 3, 1, 1, '(0.5,)', '0.0',
        '9bd217bfb98f3f1361cac3072f59d99b046967d935d2789570442c6b9b842c7c'),
    ('wrapped-sine', 'doo(1,1/3)', 2): (
        2, 6, 2, 2, '(0.5,)', '0.0',
        '613a3be02e8e6c27c87974020bd12c7c6e97201f214949700d121c8bb3e5ebbd'),
    ('wrapped-sine', 'doo(1,1/3)', 5): (
        5, 15, 5, 5, '(0.5,)', '0.0',
        'c3c3d41bdbb96c65c2e49996af2e7fee9b13bddfda6a8d8b2735c764720ba502'),
    ('wrapped-sine', 'doo(1,1/3)', 13): (
        13, 39, 13, 13, '(0.5,)', '0.0',
        'd5573e41e012dc891d043edf95bcd7bfa6c40a2d26291e39211a793625ba520b'),
    ('wrapped-sine', 'doo(1,1/3)', 50): (
        50, 150, 37, 50, '(0.5,)', '0.0',
        'c5cd17d6089fd27ad6cd2675429d9ca7501d8178953b4cd9a015478a3377d545'),
    ('wrapped-sine', 'doo(1,1/3)', 200): (
        200, 600, 39, 200, '(0.5,)', '0.0',
        '9d5e2214fc4578a4e5a34255992b3f16c9ab7f87e36ec878a010ebca9127f5c8'),
    ('wrapped-sine', 'doo(1,1/3)', 1000): (
        1000, 3000, 41, 1000, '(0.5,)', '0.0',
        'b7d5121a9c14528178bd6d098758c3dfe31b3f61e2f1e28e7e60803ca262ddbf'),
    ('wrapped-sine', 'doo(1,1/3)', 5000): (
        5000, 15000, 42, 5000, '(0.5,)', '0.0',
        '27903d06e602858bbc1bc8cff9d742949533bea9dd11ca8662c180b8a26e2c9a'),
    ('wrapped-sine', 'uniform', 1): (
        1, 4, 1, 1, '(0.5,)', '0.0',
        '17404528f38a69b419eb89136d170bdf60b46001ebaa96cf9efacb1544648b1a'),
    ('wrapped-sine', 'uniform', 2): (
        2, 7, 2, 2, '(0.5,)', '0.0',
        '85f7437ca95cdc1fab5773b01520f205f59808431f0c62d5d41655cbbf0e4e45'),
    ('wrapped-sine', 'uniform', 5): (
        5, 16, 3, 5, '(0.5,)', '0.0',
        '4a60d24dcf092640caa69089efdd2a8b1078b203a261a64dea72b06891a3f3fb'),
    ('wrapped-sine', 'uniform', 13): (
        13, 40, 3, 13, '(0.5,)', '0.0',
        '735110264b030da4ecada4a2a1841341114c13be289ca50db06b760249b43864'),
    ('wrapped-sine', 'uniform', 50): (
        50, 151, 5, 50, '(0.5,)', '0.0',
        '4d78d299678266d9a953b54d39f5101664fa42ca9df40ccd7a8f91e0ca4842c7'),
    ('wrapped-sine', 'uniform', 200): (
        200, 601, 6, 200, '(0.5,)', '0.0',
        '3dd06af25a284dbac5ddc0ea4260c67c7df768e295a7783d830315d4fe26ba43'),
    ('wrapped-sine', 'uniform', 1000): (
        1000, 3001, 7, 1000, '(0.5,)', '0.0',
        '4bc06e5373907478455b6a65e03480f0af570d7ad80e3621373c9b96b42f18b1'),
    ('wrapped-sine', 'uniform', 5000): (
        5000, 15001, 9, 5000, '(0.5,)', '0.0',
        'cb65fe82d5655f66e0e14cdd2835a2b6d56c50295c37931b6c87e15341524657'),
    ('wrapped-sine', 'uniform:b=0.5', 1): (
        1, 4, 1, 1, '(0.5,)', '0.4106144830799372',
        '17404528f38a69b419eb89136d170bdf60b46001ebaa96cf9efacb1544648b1a'),
    ('wrapped-sine', 'uniform:b=0.5', 2): (
        2, 7, 2, 2, '(0.5,)', '0.4106144830799372',
        '85f7437ca95cdc1fab5773b01520f205f59808431f0c62d5d41655cbbf0e4e45'),
    ('wrapped-sine', 'uniform:b=0.5', 5): (
        5, 16, 3, 5, '(0.5,)', '0.4106144830799372',
        '4a60d24dcf092640caa69089efdd2a8b1078b203a261a64dea72b06891a3f3fb'),
    ('wrapped-sine', 'uniform:b=0.5', 13): (
        13, 40, 3, 13, '(0.5,)', '0.4106144830799372',
        '735110264b030da4ecada4a2a1841341114c13be289ca50db06b760249b43864'),
    ('wrapped-sine', 'uniform:b=0.5', 50): (
        50, 151, 5, 50, '(0.5,)', '0.4106144830799372',
        '4d78d299678266d9a953b54d39f5101664fa42ca9df40ccd7a8f91e0ca4842c7'),
    ('wrapped-sine', 'uniform:b=0.5', 200): (
        200, 601, 6, 200, '(0.5,)', '0.4106144830799372',
        '3dd06af25a284dbac5ddc0ea4260c67c7df768e295a7783d830315d4fe26ba43'),
    ('wrapped-sine', 'uniform:b=0.5', 1000): (
        1000, 3001, 7, 1000, '(0.5,)', '0.48869357459376483',
        '4bc06e5373907478455b6a65e03480f0af570d7ad80e3621373c9b96b42f18b1'),
    ('wrapped-sine', 'uniform:b=0.5', 5000): (
        5000, 15001, 9, 5000, '(0.5,)', '0.48869357459376483',
        'cb65fe82d5655f66e0e14cdd2835a2b6d56c50295c37931b6c87e15341524657'),
    ('wrapped-sine', 'stroquool', 13): (
        2, 7, 2, 3, '(0.5,)', '0.0',
        'bbb97473870d0685098c188cb6640e1f9becbe5586b8aa9a5c30b879cd5b7a4d'),
    ('wrapped-sine', 'stroquool', 50): (
        2, 7, 2, 3, '(0.5,)', '0.0',
        'bbb97473870d0685098c188cb6640e1f9becbe5586b8aa9a5c30b879cd5b7a4d'),
    ('wrapped-sine', 'stroquool', 200): (
        4, 19, 3, 7, '(0.5,)', '0.0',
        '5c093d3b1c3d11382290a26c57fb9486a677303379055126ac762a9ce1d3ceda'),
    ('wrapped-sine', 'stroquool', 1000): (
        12, 87, 7, 31, '(0.5,)', '0.0',
        '3f4ffd95915e41041108bdabfa5102097ba478f34e0dd496e2061c826ae900c1'),
    ('wrapped-sine', 'stroquool', 5000): (
        61, 564, 25, 196, '(0.5,)', '0.0',
        'b154879f19fc8c8c27289882485cd381ce72131b08fdd07a5d3197578fdf1519'),
    ('wrapped-sine', 'stroquool:b=0.5', 13): (
        2, 7, 2, 3, '(0.38888888888888884,)', '-0.12445296573833209',
        '017e671f19d8a432f796dc5eb796f1244b5e7c198812d13d24d87b8b90030806'),
    ('wrapped-sine', 'stroquool:b=0.5', 50): (
        2, 7, 2, 3, '(0.38888888888888884,)', '-0.12445296573833209',
        '017e671f19d8a432f796dc5eb796f1244b5e7c198812d13d24d87b8b90030806'),
    ('wrapped-sine', 'stroquool:b=0.5', 200): (
        4, 19, 3, 7, '(0.5,)', '0.45827188405651664',
        '5c093d3b1c3d11382290a26c57fb9486a677303379055126ac762a9ce1d3ceda'),
    ('wrapped-sine', 'stroquool:b=0.5', 1000): (
        12, 90, 7, 34, '(0.5,)', '0.048645266768159535',
        'd69cfc5b34bb6f0ea539334e8236c7dee2d78cfb6e3bc7947fc9cb2c35bd5e8b'),
    ('wrapped-sine', 'stroquool:b=0.5', 5000): (
        61, 612, 25, 244, '(0.5,)', '0.075685063523299',
        '59c9df06ffda7e697587b8f44982e8631f68814d5d4789ee986650998761a54f'),
}


@pytest.mark.parametrize("objective,algo,n", list(FROZEN))
def test_frozen_result(objective, algo, n):
    cfg = RunConfig(budget_n=n, record_trace=True)
    res = RUNNERS[algo](get_objective(objective), cfg)
    assert digest(res) == FROZEN[(objective, algo, n)]
