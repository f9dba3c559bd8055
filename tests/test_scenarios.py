"""Cost-table scenarios and the multi-generation simulator."""

import enum
import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabregen.exactcode import (
    Behavior,
    FragmentDigestTable,
    NodeBlock,
    ObjectMatrix,
    RepairFailureError,
    _as_served,
    collect,
    encode_object,
)
from collabregen.gf import FieldElement
from collabregen.scenarios import (
    REFERENCE_COSTS,
    SCENARIO_NAMES,
    CodeSetup,
    Mitigation,
    ScenarioConfig,
    _reconstruction_ok,
    run_all_cost_scenarios,
    run_cost_scenario,
    simulate_generations,
    stats_to_csv,
)


class Count(enum.IntEnum):
    THREE = 3


class TestCostScenarios:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_measured_costs_match_reference(self, name):
        record = run_cost_scenario(name)
        want = REFERENCE_COSTS[name]
        assert record.beta_av == want.beta_av
        assert record.beta_prime == want.beta_prime
        assert record.gamma == want.gamma
        assert record.effective_d == want.effective_d

    def test_specific_values(self):
        assert run_cost_scenario("selfish-baseline").gamma == 2
        assert run_cost_scenario("selfish-newcomer").beta_av == 1
        assert run_cost_scenario("selfish-live").beta_av == F(3, 4)
        polluted = run_cost_scenario("polluting-live")
        assert (polluted.gamma, polluted.effective_d) == (3, 5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            run_cost_scenario("no-such-column")

    def test_costs_independent_of_object_seed(self):
        for seed in (0, 1, 99):
            for record in run_all_cost_scenarios(seed=seed):
                want = REFERENCE_COSTS[record.scenario]
                assert (record.beta_av, record.beta_prime, record.gamma) == (
                    want.beta_av,
                    want.beta_prime,
                    want.gamma,
                )


def pollution_config(mitigation=Mitigation.NONE, generations=8, seed=7) -> ScenarioConfig:
    # GF(256) keeps accidental payload collisions out of the statistics
    return ScenarioConfig(
        code=CodeSetup(m=8, n=10, kappa=3, t=2, first_power=1),
        generations=generations,
        seed=seed,
        mitigation=mitigation,
        behaviors={1: Behavior.POLLUTING},
    )


class TestSimulation:
    def test_clean_run_costs_match_analytic_gamma(self):
        cfg = ScenarioConfig(generations=6, seed=3)
        stats = simulate_generations(cfg)
        assert len(stats) == 6
        for s in stats:
            # kappa + (t-1) pieces per repaired node over B/k = t pieces
            assert s.gamma == pytest.approx((3 + 1) / 2)
            assert s.polluted_block_count == 0
            assert s.reconstruction_ok

    def test_pollution_spreads_without_mitigation(self):
        stats = simulate_generations(pollution_config(generations=10))
        counts = [s.polluted_block_count for s in stats]
        assert counts == sorted(counts)
        assert counts[-1] > 0
        assert any(not s.reconstruction_ok for s in stats)

    def test_digests_keep_blocks_clean(self):
        stats = simulate_generations(pollution_config(Mitigation.DIGESTS, generations=10))
        assert all(s.polluted_block_count == 0 for s in stats)
        assert all(s.reconstruction_ok for s in stats)

    def test_byte_reproducibility(self):
        a = stats_to_csv(simulate_generations(pollution_config()))
        b = stats_to_csv(simulate_generations(pollution_config()))
        assert a == b
        changed = stats_to_csv(simulate_generations(pollution_config(seed=8)))
        assert changed != a

    def test_explicit_schedule_and_overrides(self):
        cfg = ScenarioConfig(
            generations=2,
            seed=1,
            failure_schedule=[[6, 7], [4, 5]],
            behavior_overrides={1: {4: Behavior.SELFISH}},
        )
        stats = simulate_generations(cfg)
        assert stats[0].repaired == (6, 7)
        assert stats[1].repaired == (4, 5)
        assert stats[1].beta_prime == 0.0  # selfish newcomer kills collaboration

    def test_conservation_of_logged_transfers(self):
        # the headline gamma excludes completion pieces, the ledger total
        # includes them; both must agree with the logged transfers
        from collabregen.exactcode import collaborative_repair
        from collabregen.scenarios import build_demo_system

        code, obj, blocks = build_demo_system(seed=2)
        _, report = collaborative_repair(
            code, blocks[:5], [6, 7], {1: Behavior.SELFISH}
        )
        logged = (
            sum(sum(d.values()) for d in report.downloads.values())
            + sum(report.exchanges.values())
            + sum(report.completion.values())
        )
        assert logged == report.total_pieces

    def test_repair_failure_carries_generation_index(self):
        cfg = ScenarioConfig(
            generations=3,
            seed=5,
            behaviors={1: Behavior.POLLUTING, 2: Behavior.POLLUTING, 3: Behavior.POLLUTING},
            mitigation=Mitigation.DIGESTS,
            failure_schedule=[[6, 7], [6, 7], [6, 7]],
        )
        with pytest.raises(RepairFailureError, match="generation 0"):
            simulate_generations(cfg)

    def test_config_json_round_trip(self):
        cfg = pollution_config(Mitigation.DIGESTS)
        again = ScenarioConfig.from_json(cfg.to_json())
        assert again == cfg
        assert stats_to_csv(simulate_generations(again)) == stats_to_csv(
            simulate_generations(cfg)
        )

    def test_config_json_text_is_pinned(self):
        # every field set: a tuple schedule, enums given as strings, no
        # assumed polluter count; keys in field order, enums as their values
        cfg = ScenarioConfig(
            code=CodeSetup(m=4, n=10, kappa=4, t=3, first_power=2),
            generations=2,
            seed=11,
            object_id="obj-x",
            mitigation="digests",
            failure_schedule=((8, 9, 10), (1, 2, 3)),
            behaviors={7: "selfish", 1: "polluting"},
            behavior_overrides={1: {5: "selfish"}},
            pollute_collection=True,
            assumed_polluters=None,
            policy="contact-new-nodes",
        )
        assert cfg.to_json() == PINNED_CONFIG_JSON

    @pytest.mark.parametrize(
        "text",
        ["[" * 2000 + "]" * 2000, '{"behaviors": ' + '{"1": ' * 2000 + "1" + "}" * 2001],
        ids=["array", "object_value"],
    )
    def test_config_nested_too_deeply_raises_value_error(self, text):
        # json.loads once ended in a RecursionError here
        with pytest.raises(ValueError, match="nested too deeply"):
            ScenarioConfig.from_json(text)

    def test_t_wider_than_a_symbol_raises_value_error(self):
        # an OverflowError once escaped from NodeBlock.to_bytes here; the t bound
        # refuses this t before any block is serialized (t <= n - kappa < 2^m fits)
        cfg = ScenarioConfig(code=CodeSetup(m=4, n=7, kappa=3, t=256), generations=2, seed=1)
        with pytest.raises(ValueError, match=r"code.t must be in 1..n - kappa = 1..4, got 256"):
            simulate_generations(cfg)

    @pytest.mark.parametrize("t", [0, 5])
    @pytest.mark.parametrize("generations", [0, 2])
    def test_t_outside_one_to_n_minus_kappa_raises_value_error(self, t, generations):
        # t = 0 once failed inside FieldMatrix, and t = 5 as a repair failure
        cfg = ScenarioConfig(code=CodeSetup(t=t), generations=generations)
        with pytest.raises(ValueError, match=rf"code.t must be in 1..n - kappa = 1..4, got {t}$"):
            simulate_generations(cfg)

    @pytest.mark.parametrize("mitigation", list(Mitigation))
    def test_t_at_n_minus_kappa_runs(self, mitigation):
        cfg = ScenarioConfig(
            code=CodeSetup(m=4, n=10, kappa=4, t=6), generations=4, seed=7, mitigation=mitigation
        )
        stats = simulate_generations(cfg)
        assert [len(s.repaired) for s in stats] == [6] * 4
        assert all(s.reconstruction_ok and s.polluted_block_count == 0 for s in stats)

    @pytest.mark.parametrize("mitigation", list(Mitigation))
    @pytest.mark.parametrize(
        "failed, message",
        [
            ([3, 3], "duplicate failed ids"),
            ([1, 8], r"node ids \[8\] outside 1..7"),
            ([1, 2, 3], "expected 2 failed ids, got 3"),
            ([1, 2, 3, 4, 5, 6, 7], "no live blocks"),
        ],
        ids=["duplicate", "above_n", "wrong_count", "every_node"],
    )
    def test_bad_failure_set_raises_value_error(self, mitigation, failed, message):
        # the repair checks each failure set; the simulation names the generation
        cfg = ScenarioConfig(generations=2, mitigation=mitigation, failure_schedule=[[6, 7], failed])
        with pytest.raises(ValueError, match=f"^generation 1: {message}$"):
            simulate_generations(cfg)

    @pytest.mark.parametrize(
        "make, fragment",
        [
            (lambda: CodeSetup(m=Count.THREE), "code.m must be an integer"),
            (lambda: CodeSetup(kappa=Count.THREE), "code.kappa must be an integer"),
            (lambda: ScenarioConfig(generations=Count.THREE), "generations must be a nonnegative integer"),
            (lambda: ScenarioConfig(assumed_polluters=Count.THREE),
             "assumed_polluters must be a nonnegative integer"),
            (lambda: ScenarioConfig(seed=Count.THREE), "seed must be an integer"),
            (lambda: simulate_generations(ScenarioConfig(behaviors=dict.fromkeys(range(1, 7), "selfish"))),
             "not enough nodes outside the persistent adversaries"),
            # a node id or generation key is an int or a string as str writes
            # one; int(key) ran these at node 1, generation 0 and node 2
            (lambda: ScenarioConfig(behaviors={1.5: "polluting"}), r"^behaviors: key 1\.5 is not an int$"),
            (lambda: ScenarioConfig(behaviors={True: "polluting"}), r"^behaviors: key True is not an int$"),
            (lambda: ScenarioConfig(behaviors={Count.THREE: "polluting"}), "behaviors: key .* is not an int"),
            (lambda: ScenarioConfig(behavior_overrides={0.5: {2: "selfish"}}),
             r"^behavior_overrides: key 0\.5 is not an int$"),
            (lambda: ScenarioConfig(behavior_overrides={0: {2.9: "selfish"}}),
             r"^behavior_overrides: an entry: key 2\.9 is not an int$"),
            (lambda: ScenarioConfig.from_json('{"behaviors": {"+3": "selfish"}}'),
             r"^behaviors: key '\+3' is not an int$"),
            (lambda: ScenarioConfig.from_json('{"behaviors": {"07": "selfish"}}'),
             r"^behaviors: key '07' is not an int$"),
            (lambda: ScenarioConfig.from_json('{"behaviors": {"\\u0663": "selfish"}}'),
             r"^behaviors: key '\u0663' is not an int$"),
            (lambda: ScenarioConfig(behaviors={"1" * 10_000: "selfish"}), r"^behaviors: key '1+\.\.\.1+' is not"),
            # "-3" is the int -3, which no node id is
            (lambda: ScenarioConfig.from_json('{"behaviors": {"-3": "selfish"}}'),
             r"^behaviors: node ids \[-3\] outside 1\.\.7$"),
        ],
    )
    def test_documented_errors(self, make, fragment):
        # an int subclass such as an IntEnum member was let through, where
        # the codes and repairs reject it
        with pytest.raises(ValueError, match=fragment):
            make()

    def test_digest_table_built_only_under_digests(self, monkeypatch):
        original, built = FragmentDigestTable.from_blocks, []

        def refuse(blocks):
            raise AssertionError("nothing reads a digest table without digests")

        def count(blocks):
            built.append(len(blocks))
            return original(blocks)

        monkeypatch.setattr(FragmentDigestTable, "from_blocks", refuse)
        simulate_generations(pollution_config(Mitigation.NONE))
        monkeypatch.setattr(FragmentDigestTable, "from_blocks", count)
        config = pollution_config(Mitigation.DIGESTS)
        simulate_generations(config)
        assert built == [config.code.n]  # once per simulation, over every node's block

    @pytest.mark.parametrize(
        "config",
        [
            {"failure_schedule": [[1, 2]] * 100_000 + [["x"]]},
            {"behaviors": {"1": json.loads("[" * 900 + "]" * 900)}},
        ],
        ids=["long_schedule", "deep_behavior"],
    )
    def test_rejected_value_is_echoed_briefly(self, config):
        # the whole value was echoed: 800,061 and 1,835 characters
        with pytest.raises(ValueError) as info:
            ScenarioConfig.from_json(json.dumps(config))
        assert str(info.value).startswith(next(iter(config))) and len(str(info.value)) < 200

    @pytest.mark.parametrize(
        "config",
        [{"k" * 100_000: 1}, {f"key{i}": 1 for i in range(20_000)}, {"code": {"k" * 100_000: 1}}],
        ids=["long_key", "many_keys", "long_code_key"],
    )
    def test_unknown_keys_are_echoed_briefly(self, config):
        # every unknown key was echoed whole: 100,032, 188,920 and 100,021 characters
        with pytest.raises(ValueError, match=r"^unknown (scenario config|code) key\(s\): ") as info:
            ScenarioConfig.from_json(json.dumps(config))
        assert len(str(info.value)) < 200

    def test_misspelled_keys_are_echoed_whole(self):
        config = {"assumed_poluters": 1, "pollute_colection": True, "sed": 1}
        with pytest.raises(ValueError) as info:
            ScenarioConfig.from_json(json.dumps(config))
        assert str(info.value) == "unknown scenario config key(s): assumed_poluters, pollute_colection, sed"
        config["genrations"] = 2
        with pytest.raises(ValueError) as info:
            ScenarioConfig.from_json(json.dumps(config))
        assert str(info.value).endswith(": assumed_poluters, genrations, pollute_colection, ...")


PINNED_CONFIG_JSON = """{
  "code": {
    "m": 4,
    "n": 10,
    "kappa": 4,
    "t": 3,
    "first_power": 2
  },
  "generations": 2,
  "seed": 11,
  "object_id": "obj-x",
  "mitigation": "digests",
  "failure_schedule": [
    [
      8,
      9,
      10
    ],
    [
      1,
      2,
      3
    ]
  ],
  "behaviors": {
    "7": "selfish",
    "1": "polluting"
  },
  "behavior_overrides": {
    "1": {
      "5": "selfish"
    }
  },
  "pollute_collection": true,
  "assumed_polluters": null,
  "policy": "contact-new-nodes"
}"""


@st.composite
def stored_states(draw):
    """A config (pollute_collection on or off), its object, the true
    payloads, a stored state in which some blocks have wrong symbols, the
    generation's behaviors and an RNG seed."""
    m = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(2, min(2**m - 1, 9)))
    setup = CodeSetup(
        m=m,
        n=n,
        kappa=draw(st.integers(1, n - 1)),
        t=draw(st.integers(1, 3)),
        first_power=draw(st.integers(0, 2)),
    )
    cfg = ScenarioConfig(code=setup, pollute_collection=draw(st.booleans()))
    code = setup.build()
    obj = ObjectMatrix.random(code.field, setup.t, setup.kappa, random.Random(draw(st.integers())))
    truth = encode_object(obj, code)
    stored = {}
    for b in truth:
        wrong = st.one_of(st.just(0), st.integers(0, code.field.order - 1))
        masks = draw(st.lists(wrong, min_size=setup.t, max_size=setup.t))
        payload = tuple(FieldElement(p.value ^ x, code.field) for p, x in zip(b.payload, masks))
        stored[b.node_id] = NodeBlock(b.node_id, b.column, payload)
    behaviors = draw(st.dictionaries(st.integers(1, n), st.sampled_from(list(Behavior)), max_size=3))
    return cfg, obj, {b.node_id: b.payload for b in truth}, stored, behaviors, draw(st.integers())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(stored_states())
def test_reconstruction_check_matches_collect(case):
    # comparing the served payloads with the truth gives collect's verdict
    # and makes the same RNG draws
    cfg, obj, truth_payloads, stored, behaviors, seed = case
    rng, want_rng = random.Random(seed), random.Random(seed)
    served = behaviors if cfg.pollute_collection else {}
    answers = [_as_served(stored[i], served, want_rng) for i in sorted(stored)[: cfg.code.kappa]]
    try:
        want = collect(answers).pieces == obj.pieces
    except ValueError:
        want = False
    assert _reconstruction_ok(cfg, truth_payloads, stored, behaviors, rng) == want
    assert rng.getstate() == want_rng.getstate()


def _sim_code(m, n, kappa, t):
    return {"m": m, "n": n, "kappa": kappa, "t": t, "first_power": 1}


_SIM_BASE = {"code": _sim_code(8, 16, 6, 3), "generations": 32, "seed": 7,
             "behaviors": {"1": "polluting"}}

# The ten `simulate` configs the CI workflow reruns at 32 generations,
# with the sha256 of each CSV; digests_wide runs 8 here to stay quick.
PINNED_SIMULATIONS = {
    "none": ({**_SIM_BASE, "mitigation": "none"},
             "a891e7500ae51047e6eeccbb3d77cec5fb6003c2f42a4a02871acfc792138d30"),
    "digests": ({**_SIM_BASE, "mitigation": "digests"},
                "6e765d1382ad7768387712a2fa56464bf8047744bd50c9f780cda066b190c05f"),
    # digests keep every stored block clean, so the polluted collection
    # alone decides each verdict (32 of 32 false)
    "polluted_read": ({**_SIM_BASE, "mitigation": "digests", "pollute_collection": True},
                      "fa61b74459116176b7fe3581980b60093bddf20131180e6410c54a222b78590d"),
    # one assumed polluter makes every repair a vote, decoded by Gao's
    # algorithm; in generation 2 newcomer 2 pollutes, so each newcomer
    # decodes all t rows of the object alone
    "vote": ({**_SIM_BASE, "mitigation": "none", "assumed_polluters": 1,
              "behavior_overrides": {"2": {"2": "polluting"}}},
             "0b6066dd32037b456f49d731a87f8bdbfdf9ade228f454f1ac6d38fc5ab43b80"),
    # selfish live node 9 is in a contact stripe, so relays and completion
    # pieces move, unless both failed ids are above it; in generation 19
    # (nodes 12 and 15 fail) newcomer 15 is selfish and nobody collaborates
    "selfish": ({"code": _sim_code(8, 16, 4, 2), "generations": 32, "seed": 7,
                 "behaviors": {"9": "selfish"}, "policy": "keep-responders",
                 "behavior_overrides": {"19": {"15": "selfish"}}},
                "07b30a755dfafca1e60cf362206c21e67a697f80576319f21abb995573420a1b"),
    # in generation 4 (nodes 2, 5 and 10 fail) newcomer 5 is selfish and
    # newcomer 2's stripe starts at selfish live node 1, so nobody relays
    # and each newcomer walks past selfish contacts to kappa responders
    "selfish_newcomer": ({"code": _sim_code(8, 16, 6, 3), "generations": 32, "seed": 7,
                          "behaviors": {"1": "selfish"},
                          "behavior_overrides": {"4": {"5": "selfish"}}},
                         "e85c123a4b2248077acc1d8c6102a77660750415b8ddf08248e966ac3f56e4d3"),
    # digests on the (10,3) code: in generation 5 (nodes 3 and 8 fail)
    # newcomer 8 pollutes and in generation 6 (nodes 2 and 3) newcomer 3
    # is selfish, so the other newcomer solves every row itself
    "digests_byzantine": ({"code": _sim_code(8, 10, 3, 2), "generations": 32, "seed": 7,
                           "mitigation": "digests", "behaviors": {"1": "polluting"},
                           "behavior_overrides": {"5": {"8": "polluting"}, "6": {"3": "selfish"}}},
                          "e917ffb4a779a05d88d1153842caa928938c43fdd96f9c30ca1f805496791bb2"),
    # digests on a (32,16) code with two polluting live nodes: each polluter
    # met multiplies the kappa-subsets tried, each an exactly-kappa decode
    "digests_wide": ({"code": _sim_code(8, 32, 16, 4), "generations": 8, "seed": 7,
                      "mitigation": "digests", "behaviors": {"1": "polluting", "2": "polluting"}},
                     "322d6366ee475481358b5bf47146495316dca6318d2fbe424a0e80b4fee9b5c3"),
    # the widest t a simulation takes: 6 of 10 nodes fail, 4 = kappa repair them
    "boundary_none": ({"code": _sim_code(4, 10, 4, 6), "generations": 32, "seed": 7,
                       "mitigation": "none"},
                      "ad0c43b9c78e26b01134d97a7fb55c88e8e50cf26ad88cdbdc1ab42e4548bab3"),
    "boundary_digests": ({"code": _sim_code(4, 10, 4, 6), "generations": 32, "seed": 7,
                          "mitigation": "digests"},
                         "ad0c43b9c78e26b01134d97a7fb55c88e8e50cf26ad88cdbdc1ab42e4548bab3"),
}


@pytest.mark.parametrize("name", PINNED_SIMULATIONS)
def test_pinned_simulation_csv(name):
    config, digest = PINNED_SIMULATIONS[name]
    csv = stats_to_csv(simulate_generations(ScenarioConfig.from_json(json.dumps(config))))
    assert hashlib.sha256(csv.encode()).hexdigest() == digest
