"""Frozen results of every optimizer on a fixed grid.

Only SequOOL and noiseless StroquOOL have straight-line reference
implementations (tests/reference_traces.py).  This module pins the rest --
SOO, DOO, uniform and noisy StroquOOL -- alongside them: for each run it
compares the openings, raw evaluations, deepest depth, budget units, the
repr of the recommendation and of its value estimate, and a SHA-256 of the
repr of the full event trace against values recorded from the library.
Any change to a schedule, a tie-break or the bookkeeping shows up here.

A second grid (FROZEN_EXTRA) covers what the first does not: 2-D and 3-D
objectives without a vector_fn (one of them piecewise constant, so ties
decide most openings), branchings K = 2 and K = 4, and truncated-gaussian
noise for StroquOOL and uniform.
"""

import hashlib
import math

import pytest

from zipftree.objectives import NoiseModel, Objective, get_objective
from zipftree.optimizers import (RunConfig, doo_run, sequool_run, soo_run,
                                 stroquool_run, uniform_run)
from zipftree.partition import Box

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


# ---------------------------------------------------------------------------
# custom objectives, K = 2 and 4, SequOOL's options, truncated-gaussian noise
# ---------------------------------------------------------------------------

def _bowl_2d(p):
    x, y = p
    return (-((x - 0.3) ** 2 + 3.0 * (y - 0.62) ** 2)
            + 0.05 * math.sin(23.0 * x * y))


def _steps_2d(p):
    # piecewise constant: most comparisons between cells are ties
    return (-math.floor(5.0 * abs(p[0] - 0.41))
            - math.floor(3.0 * abs(p[1] - 0.58)))


def _ridge_3d(p):
    x, y, z = p
    return -abs(x - 0.7) - 2.0 * (y - 0.25) ** 2 + math.cos(3.0 * z)


# no vector_fn: the optimizers see only the scalar fn
CUSTOM = {
    "bowl-2d": lambda: Objective("bowl-2d", Box([0.0, 0.0], [1.0, 1.0]),
                                 _bowl_2d),
    "steps-2d": lambda: Objective("steps-2d", Box([-1.0, 0.0], [1.0, 2.0]),
                                  _steps_2d),
    "ridge-3d": lambda: Objective("ridge-3d",
                                  Box([-1.0, 0.0, 0.5], [2.0, 1.0, 3.0]),
                                  _ridge_3d),
}


def _truncated_gaussian(b):
    return NoiseModel(b, "truncated-gaussian", seed=NOISE_SEED)


EXTRA_RUNNERS = {
    "sequool": RUNNERS["sequool"],
    "soo": RUNNERS["soo"],
    "doo(1,0.6)": RUNNERS["doo(1,0.6)"],
    "uniform": RUNNERS["uniform"],
    "uniform:tg=0.5": lambda obj, cfg: uniform_run(
        obj, _truncated_gaussian(0.5), cfg),
    "stroquool": RUNNERS["stroquool"],
    "stroquool:b=0.5": RUNNERS["stroquool:b=0.5"],
    "stroquool:tg=0.5": lambda obj, cfg: stroquool_run(
        obj, _truncated_gaussian(0.5), cfg),
}

# (objective, K, algorithm, n) -> digest, over the objective/K settings
# (garland, 2), (garland, 4), (bowl-2d, 3), (steps-2d, 2), (ridge-3d, 4)
# and n in {20, 1500}
FROZEN_EXTRA = {
    ('garland', 2, 'sequool', 20): (
        8, 16, 6, 8, '(0.3671875,)',
        '0.8829185463454374',
        'dd2e454ec4746b0daac5aaddf7a6088e9e6cdc1ddac9b0ba9be19790f9d68c9a'),
    ('garland', 2, 'sequool', 1500): (
        661, 1322, 191, 661, '(0.5235987755982989,)',
        '0.9977723791254037',
        '9c9668722c244e4d757e4eaf0f1a6e53017419ac91d8d943160e9e5446158fe6'),
    ('garland', 2, 'soo', 20): (
        20, 40, 5, 20, '(0.46875,)',
        '0.900040577189295',
        '6262136da1344c54a3f414c3c638893b496fd195debc21affb026ee0e1ca6455'),
    ('garland', 2, 'soo', 1500): (
        1500, 3000, 39, 1500, '(0.5235987755986571,)',
        '0.9977712347374728',
        '37c19c7cb354ac419aa3010debb12cf0554d8f179a487fae2a359bb915e90c4b'),
    ('garland', 2, 'doo(1,0.6)', 20): (
        20, 40, 14, 20, '(0.523590087890625,)',
        '0.9920789432636357',
        '1f4911180411b0811c859036a98d8d6d6fb557f4abd66adfbc3a350c83d71f0e'),
    ('garland', 2, 'doo(1,0.6)', 1500): (
        1500, 3000, 64, 1500, '(0.5235987755982989,)',
        '0.9977723791254037',
        'cd27411b7ada29504e3b7a27e8ef374f10b365763c1e419277101829f90cd4bd'),
    ('garland', 2, 'uniform', 20): (
        20, 41, 5, 20, '(0.46875,)',
        '0.900040577189295',
        '26bd4604a159f0b71328da2045edd041b5f9d3ada3b7b1394f10bb713472866d'),
    ('garland', 2, 'uniform', 1500): (
        1500, 3001, 11, 1500, '(0.47119140625,)',
        '0.9833793771386087',
        '05a99483eaea0b68522bad5452aac07eb04436758c613a427adcee69f85e8048'),
    ('garland', 2, 'uniform:tg=0.5', 20): (
        20, 41, 5, 20, '(0.4375,)',
        '1.2043694538275327',
        '26bd4604a159f0b71328da2045edd041b5f9d3ada3b7b1394f10bb713472866d'),
    ('garland', 2, 'uniform:tg=0.5', 1500): (
        1500, 3001, 11, 1500, '(0.419677734375,)',
        '1.4062348910126936',
        '05a99483eaea0b68522bad5452aac07eb04436758c613a427adcee69f85e8048'),
    ('garland', 2, 'stroquool', 20): (
        2, 5, 2, 3, '(0.375,)',
        '0.7739112007497448',
        'a87e177ffa86f10046eee83125daac11e7f02871eadd36faad4d3e8e2e060a0e'),
    ('garland', 2, 'stroquool', 1500): (
        17, 98, 10, 55, '(0.5234375,)',
        '0.9732646155223179',
        '4cc67508faa4c2ab5a0cd4a1dd453c4afa63308bd34e696443c5aaa02085e4fa'),
    ('garland', 2, 'stroquool:b=0.5', 20): (
        2, 5, 2, 3, '(0.375,)',
        '0.412750004414149',
        'a87e177ffa86f10046eee83125daac11e7f02871eadd36faad4d3e8e2e060a0e'),
    ('garland', 2, 'stroquool:b=0.5', 1500): (
        17, 98, 10, 55, '(0.5625,)',
        '0.9372276755938267',
        '25b8061de22018f8ce8b9f625c3615db7450cda68c07c8ecf2413bed51f38978'),
    ('garland', 2, 'stroquool:tg=0.5', 20): (
        2, 5, 2, 3, '(0.25,)',
        '0.5282428470686339',
        'fe757e1180c6f78f66a20d69718a278040b79522beb10cf6a8a76e29e5a19b26'),
    ('garland', 2, 'stroquool:tg=0.5', 1500): (
        17, 102, 10, 59, '(0.625,)',
        '0.8961518312211092',
        '70207803058983ae3376067d72e0432c99eb4cf588e0265bcb365ec2235c87df'),
    ('garland', 4, 'sequool', 20): (
        10, 40, 6, 10, '(0.5235595703125,)',
        '0.9856815395768833',
        'd850312c5237274084f012802430fc12513f5fac6a36ecc0a57c16aadc515fb4'),
    ('garland', 4, 'sequool', 1500): (
        767, 3068, 191, 767, '(0.5235987755982989,)',
        '0.9977723791254037',
        'f97720ecee990f03fa0450736e1212f05e109c1beafcee7302c855f437beac7f'),
    ('garland', 4, 'soo', 20): (
        20, 80, 5, 20, '(0.47119140625,)',
        '0.9833793771386087',
        'e9e98c8a31e4a248c86fb9d8034d08ead7538054edd76f0a78fecb641017955f'),
    ('garland', 4, 'soo', 1500): (
        1500, 6000, 39, 1500, '(0.5235987755982989,)',
        '0.9977723791254037',
        '85eb0e82a1fdd4baf42355b87cf767a060c547f4357b36ba34bdfdd91750f107'),
    ('garland', 4, 'doo(1,0.6)', 20): (
        20, 80, 6, 20, '(0.5235595703125,)',
        '0.9856815395768833',
        '2a96f5ad629825b09a33da9b88f408ee2c5b2bda18630d64584608d14f983f23'),
    ('garland', 4, 'doo(1,0.6)', 1500): (
        1500, 6000, 22, 1500, '(0.5235987755982876,)',
        '0.9977721860344388',
        'a6fb79fbe005067abb30b47f362eeb25e681cbb2d9564d54b616d0d261e7b503'),
    ('garland', 4, 'uniform', 20): (
        20, 81, 3, 20, '(0.5234375,)',
        '0.9732646155223179',
        '758e586eae16de03986e949f3deae05ca4cb33fb2e33866dab38bacda0d69d37'),
    ('garland', 4, 'uniform', 1500): (
        1500, 6001, 7, 1500, '(0.5235595703125,)',
        '0.9856815395768833',
        '17788d810fb1016b6ee40f16a0d9f43b880bf2a1eb03838211d5a47e155c0be2'),
    ('garland', 4, 'uniform:tg=0.5', 20): (
        20, 81, 3, 20, '(0.4453125,)',
        '1.216837521354238',
        '758e586eae16de03986e949f3deae05ca4cb33fb2e33866dab38bacda0d69d37'),
    ('garland', 4, 'uniform:tg=0.5', 1500): (
        1500, 6001, 7, 1500, '(0.5240478515625,)',
        '1.4412595859037898',
        '17788d810fb1016b6ee40f16a0d9f43b880bf2a1eb03838211d5a47e155c0be2'),
    ('garland', 4, 'stroquool', 20): (
        2, 9, 2, 3, '(0.625,)',
        '0.8332627102343574',
        'd326de9b5fc9f52789965507be1c8e465739487a5f5cfaacf5b2a608d5c1cef2'),
    ('garland', 4, 'stroquool', 1500): (
        19, 208, 10, 64, '(0.4712390899658203,)',
        '0.9958456796707651',
        'd377d73f2e66d34726ce9785629801cd1e501cfe5a6468273146c589840f1e0d'),
    ('garland', 4, 'stroquool:b=0.5', 20): (
        2, 9, 2, 3, '(0.625,)',
        '0.5877293741722642',
        'd326de9b5fc9f52789965507be1c8e465739487a5f5cfaacf5b2a608d5c1cef2'),
    ('garland', 4, 'stroquool:b=0.5', 1500): (
        19, 208, 10, 64, '(0.4155254364013672,)',
        '1.1940165777366012',
        '7ba2cfb6913864a416280b3cd6c4dc19d6fc0a2ff509de5288bb37b91f7f4161'),
    ('garland', 4, 'stroquool:tg=0.5', 20): (
        2, 9, 2, 3, '(0.375,)',
        '0.7639210854307407',
        'bbb97473870d0685098c188cb6640e1f9becbe5586b8aa9a5c30b879cd5b7a4d'),
    ('garland', 4, 'stroquool:tg=0.5', 1500): (
        19, 208, 10, 64, '(0.52099609375,)',
        '1.018866856747775',
        '685c152f10b4713e726f705383c07df3f66c64ef23e3c1c1e35228531aa81c75'),
    ('bowl-2d', 3, 'sequool', 20): (
        9, 27, 6, 9, '(0.12962962962962962, 0.6111111111111112)',
        '0.019167391590462025',
        '8d9dbad888b8d9d8c6057223cdc69067c4c111588cfe8d91e165661d31411a68'),
    ('bowl-2d', 3, 'sequool', 1500): (
        723, 2169, 191, 723, '(0.145223209486304, 0.6076702970232111)',
        '0.02041501152570942',
        '7db5ee5c4857628b276f4e604bf6bca39dddda2e0d50f92b3daf2146fd551061'),
    ('bowl-2d', 3, 'soo', 20): (
        20, 60, 5, 20, '(0.12962962962962962, 0.6111111111111112)',
        '0.019167391590462025',
        '6e18a9ffb893e9b05a960d78046406e9004deacbe288e4bcb64a3dd37a91b1ee'),
    ('bowl-2d', 3, 'soo', 1500): (
        1500, 4500, 39, 1500, '(0.145223209486304, 0.6076702967044163)',
        '0.020415011525709414',
        '3d790351700abf668308a10d5a9223f0c577b4551f720af6bc77fd263514119b'),
    ('bowl-2d', 3, 'doo(1,0.6)', 20): (
        20, 60, 5, 20, '(0.12962962962962962, 0.6111111111111112)',
        '0.019167391590462025',
        '90bc5122e33fd47bc197935210d493d0287f501d9c2e839a0e6c2ff6eaad63dc'),
    ('bowl-2d', 3, 'doo(1,0.6)', 1500): (
        1500, 4500, 14, 1500, '(0.14517604023776864, 0.6079103795153178)',
        '0.020414841696863053',
        '192d6c9b1a5f473922cc6aa25ac947b2fb73fd1d52c2907fa43f75df0d6b67a2'),
    ('bowl-2d', 3, 'uniform', 20): (
        20, 61, 4, 20, '(0.16666666666666666, 0.6111111111111112)',
        '0.017818138593643732',
        '0917ed5cf909572d1a7cc50d271403990893fdc9c6ff9043ebf4bfe7952c178b'),
    ('bowl-2d', 3, 'uniform', 1500): (
        1500, 4501, 8, 1500, '(0.1419753086419753, 0.6111111111111112)',
        '0.02034834160490677',
        'e7d077a7e68503e798f6b6406ff2117c225aaaa2889df789c80e1dd5ec1919d8'),
    ('bowl-2d', 3, 'uniform:tg=0.5', 20): (
        20, 61, 4, 20, '(0.05555555555555555, 0.38888888888888884)',
        '0.27964100866388375',
        '0917ed5cf909572d1a7cc50d271403990893fdc9c6ff9043ebf4bfe7952c178b'),
    ('bowl-2d', 3, 'uniform:tg=0.5', 1500): (
        1500, 4501, 8, 1500, '(0.12962962962962962, 0.537037037037037)',
        '0.4850088966631175',
        'e7d077a7e68503e798f6b6406ff2117c225aaaa2889df789c80e1dd5ec1919d8'),
    ('bowl-2d', 3, 'stroquool', 20): (
        2, 7, 2, 3, '(0.16666666666666666, 0.5)',
        '-0.013938740269644631',
        'fe757e1180c6f78f66a20d69718a278040b79522beb10cf6a8a76e29e5a19b26'),
    ('bowl-2d', 3, 'stroquool', 1500): (
        18, 154, 10, 62, '(0.14609053497942387, 0.6069958847736625)',
        '0.020411019033944825',
        'f38a6b8dab90aa3d5367ee7630dc535f0cc62cfa1eb087fd1e4b6e479ea5b4c1'),
    ('bowl-2d', 3, 'stroquool:b=0.5', 20): (
        2, 7, 2, 3, '(0.8333333333333333, 0.5)',
        '0.11949099270265162',
        'd326de9b5fc9f52789965507be1c8e465739487a5f5cfaacf5b2a608d5c1cef2'),
    ('bowl-2d', 3, 'stroquool:b=0.5', 1500): (
        18, 154, 10, 62, '(0.24074074074074073, 0.6481481481481481)',
        '0.2545740137881596',
        '64ff65becf36a5584da9298efe0aa1b5a614fcda91f3b27d83dead00370a690d'),
    ('bowl-2d', 3, 'stroquool:tg=0.5', 20): (
        2, 7, 2, 3, '(0.16666666666666666, 0.5)',
        '-0.15371456053930133',
        'fe757e1180c6f78f66a20d69718a278040b79522beb10cf6a8a76e29e5a19b26'),
    ('bowl-2d', 3, 'stroquool:tg=0.5', 1500): (
        18, 154, 10, 62, '(0.09259259259259259, 0.6111111111111112)',
        '0.038412100226366375',
        '79e35fd426637aac194727356d146738a25f683e55cde7b2d4d474145c0fcff8'),
    ('steps-2d', 2, 'sequool', 20): (
        8, 16, 6, 8, '(0.5, 0.5)',
        '0.0',
        'c9c282dd924e71b87adac1f1288797e82e037c3d60ca1ab33fbf76a31ed2ced1'),
    ('steps-2d', 2, 'sequool', 1500): (
        661, 1322, 191, 661, '(0.5, 0.5)',
        '0.0',
        '4483bfd21f18e7bc38722b3360c969ec60aba72310af9987cfd5c96507cc5cc3'),
    ('steps-2d', 2, 'soo', 20): (
        20, 40, 5, 20, '(0.5, 0.5)',
        '0.0',
        '8fb355a47eadd1d30af8beba3200fe25371098760d516c60b44f6053cb981f6b'),
    ('steps-2d', 2, 'soo', 1500): (
        1500, 3000, 39, 1500, '(0.5, 0.5)',
        '0.0',
        'd81e1098fa1783c26acff13d9355158457fa6953978a5fec806059485dec2a41'),
    ('steps-2d', 2, 'doo(1,0.6)', 20): (
        20, 40, 9, 20, '(0.5, 0.5)',
        '0.0',
        'b576f69bcb5fcd4a57a31163f918a369a1f473e919b926d618a2b41ee408d7c8'),
    ('steps-2d', 2, 'doo(1,0.6)', 1500): (
        1500, 3000, 16, 1500, '(0.5, 0.5)',
        '0.0',
        '03416666cdb64c79eaea5a1e3b0790aa6b86353efc299f426e73b4d1c3994d30'),
    ('steps-2d', 2, 'uniform', 20): (
        20, 41, 5, 20, '(0.5, 0.5)',
        '0.0',
        '26bd4604a159f0b71328da2045edd041b5f9d3ada3b7b1394f10bb713472866d'),
    ('steps-2d', 2, 'uniform', 1500): (
        1500, 3001, 11, 1500, '(0.5, 0.5)',
        '0.0',
        '05a99483eaea0b68522bad5452aac07eb04436758c613a427adcee69f85e8048'),
    ('steps-2d', 2, 'uniform:tg=0.5', 20): (
        20, 41, 5, 20, '(0.25, 0.25)',
        '-0.014244502768464527',
        '26bd4604a159f0b71328da2045edd041b5f9d3ada3b7b1394f10bb713472866d'),
    ('steps-2d', 2, 'uniform:tg=0.5', 1500): (
        1500, 3001, 11, 1500, '(0.34375, 0.6875)',
        '0.44832886929171517',
        '05a99483eaea0b68522bad5452aac07eb04436758c613a427adcee69f85e8048'),
    ('steps-2d', 2, 'stroquool', 20): (
        2, 5, 2, 3, '(0.5, 0.5)',
        '0.0',
        'd6c3e59915641d922db133ad071954f84b08ce1d0a46f3aa5ac16c40ccfefe9d'),
    ('steps-2d', 2, 'stroquool', 1500): (
        17, 90, 10, 47, '(0.5, 0.5)',
        '0.0',
        'c0f2cc6f3a4d498e8b92464c915dcb9aaaee7bab23c3234b1387587072b24f5a'),
    ('steps-2d', 2, 'stroquool:b=0.5', 20): (
        2, 5, 2, 3, '(0.5, 0.5)',
        '-0.36116119633559585',
        'd6c3e59915641d922db133ad071954f84b08ce1d0a46f3aa5ac16c40ccfefe9d'),
    ('steps-2d', 2, 'stroquool:b=0.5', 1500): (
        17, 102, 10, 59, '(0.25, 0.5)',
        '0.16204313772444617',
        'c98f68b5574a8b79be648283a43a897157dfbcf2cb2cc6644d351e7bc89ad9bb'),
    ('steps-2d', 2, 'stroquool:tg=0.5', 20): (
        2, 5, 2, 3, '(0.5, 0.5)',
        '-0.07055635306402543',
        'd6c3e59915641d922db133ad071954f84b08ce1d0a46f3aa5ac16c40ccfefe9d'),
    ('steps-2d', 2, 'stroquool:tg=0.5', 1500): (
        17, 102, 10, 59, '(0.5, 0.5)',
        '0.0628891209867519',
        'b2e0e3850b9822c9e372563f012906bf395e9696be5a60b07fb76edc35f44042'),
    ('ridge-3d', 4, 'sequool', 20): (
        10, 40, 6, 10, '(0.78125, 0.21875, 2.0625)',
        '0.9122225276975189',
        'ae9e66747540bfaddcd7b7ee62f2791f7b772df36796707aab2198bda60731fc'),
    ('ridge-3d', 4, 'sequool', 1500): (
        767, 3068, 191, 767, '(0.7, 0.24999999473220672, 2.09439509967342)',
        '1.0',
        'f47d959c7d45fcb8d3846d95498975825ff999e249d4053fb20729d05c4f5c8d'),
    ('ridge-3d', 4, 'soo', 20): (
        20, 80, 5, 20, '(0.78125, 0.21875, 2.0625)',
        '0.9122225276975189',
        'b4050feccd6816e16d74225be5be35e282a1d6d7a5baaf4eb0488d7d0ce8e96d'),
    ('ridge-3d', 4, 'soo', 1500): (
        1500, 6000, 39, 1500,
        '(0.7000000104308128, 0.2499999925494194, 2.0943950973451138)',
        '0.9999999895691869',
        '63730b94b694146fa252f813b1ae29fc9adda9aa559329ab2925e11c4dd15308'),
    ('ridge-3d', 4, 'doo(1,0.6)', 20): (
        20, 80, 13, 20, '(0.70068359375, 0.248046875, 2.0966796875)',
        '0.9992852899664122',
        'f0717c4228b942db632f723f08e38de657f04bf874921bd2affff6fb2fb2b4b6'),
    ('ridge-3d', 4, 'doo(1,0.6)', 1500): (
        1500, 6000, 88, 1500, '(0.7, 0.24999999627470973, 2.09439509967342)',
        '1.0',
        '91c04d828201a1df85e01d751f42906842a30fd7de454fca0680263d087f287e'),
    ('ridge-3d', 4, 'uniform', 20): (
        20, 81, 3, 20, '(0.875, 0.125, 2.0625)',
        '0.7891756526975189',
        '758e586eae16de03986e949f3deae05ca4cb33fb2e33866dab38bacda0d69d37'),
    ('ridge-3d', 4, 'uniform', 1500): (
        1500, 6001, 7, 1500, '(0.78125, 0.21875, 2.0625)',
        '0.9122225276975189',
        '17788d810fb1016b6ee40f16a0d9f43b880bf2a1eb03838211d5a47e155c0be2'),
    ('ridge-3d', 4, 'uniform:tg=0.5', 20): (
        20, 81, 3, 20, '(0.875, 0.125, 2.0625)',
        '0.8224071768008469',
        '758e586eae16de03986e949f3deae05ca4cb33fb2e33866dab38bacda0d69d37'),
    ('ridge-3d', 4, 'uniform:tg=0.5', 1500): (
        1500, 6001, 7, 1500, '(0.59375, 0.15625, 2.140625)',
        '1.2924145391877901',
        '17788d810fb1016b6ee40f16a0d9f43b880bf2a1eb03838211d5a47e155c0be2'),
    ('ridge-3d', 4, 'stroquool', 20): (
        2, 9, 2, 3, '(0.875, 0.125, 1.75)',
        '0.3058354772418407',
        '6b6e7f574bac7415d13fd67f5b6bb823f43eb2a71c5fd89f3ccb3dcdd7c4cacb'),
    ('ridge-3d', 4, 'stroquool', 1500): (
        19, 208, 10, 64, '(0.705078125, 0.2421875, 2.08203125)',
        '0.9941119917427363',
        'c630ad2df0140088bac05d3a700dd8ce6de1cf94c17629b0934a27225d43ee56'),
    ('ridge-3d', 4, 'stroquool:b=0.5', 20): (
        2, 9, 2, 3, '(0.875, 0.5, 1.75)',
        '-0.033447858820252474',
        'd326de9b5fc9f52789965507be1c8e465739487a5f5cfaacf5b2a608d5c1cef2'),
    ('ridge-3d', 4, 'stroquool:b=0.5', 1500): (
        19, 208, 10, 64, '(0.6640625, 0.3671875, 2.04296875)',
        '1.2558537238152532',
        'a271597275888f6fc8dbeaeed2f020d182457445161c4fe8d6c97fa461c19a34'),
    ('ridge-3d', 4, 'stroquool:tg=0.5', 20): (
        2, 9, 2, 3, '(0.875, 0.125, 1.75)',
        '0.2958453619228366',
        '6b6e7f574bac7415d13fd67f5b6bb823f43eb2a71c5fd89f3ccb3dcdd7c4cacb'),
    ('ridge-3d', 4, 'stroquool:tg=0.5', 1500): (
        19, 204, 10, 60, '(0.78125, 0.34375, 2.0625)',
        '1.0156461515966602',
        '677f5069466efd818f11e42c418cdc6f47b4c9a631c36035d5bae0d2c93fff44'),
}


@pytest.mark.parametrize("objective,K,algo,n", list(FROZEN_EXTRA))
def test_frozen_result_extra(objective, K, algo, n):
    runner = EXTRA_RUNNERS[algo]
    obj = CUSTOM[objective]() if objective in CUSTOM else get_objective(objective)
    cfg = RunConfig(budget_n=n, branching=K, record_trace=True)
    assert digest(runner(obj, cfg)) == FROZEN_EXTRA[(objective, K, algo, n)]
