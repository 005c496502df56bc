"""Section V-C extension: NPU and TPU actions.

The paper notes that "additional actions, such as mobile NPU or cloud
TPU, could be further considered" once their SDKs are programmable.  This
benchmark runs AutoScale on the hypothetical NPU-equipped Mi8Pro against
the TPU-equipped cloud and shows the engine discovering the new targets —
including that the INT8-only accelerators are blocked by high accuracy
targets, so quality requirements still steer decisions (Fig. 12's logic
extended to the new hardware).
"""

from repro.baselines.oracle import OptOracle
from repro.core.engine import AutoScale
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.evalharness.reporting import format_table
from repro.hardware.devices import build_device
from repro.models.zoo import build_network


def test_npu_tpu_extension(once, record_table):
    def experiment():
        env = EdgeCloudEnvironment(
            build_device("mi8pro_npu"),
            cloud=build_device("cloud_server_tpu"),
            scenario="S1", seed=0,
        )
        engine = AutoScale(env, seed=0)
        rows = []
        for name in ("mobilenet_v3", "inception_v1", "resnet_50",
                     "mobilebert"):
            use_case = use_case_for(build_network(name))
            engine.unfreeze()
            engine.convergence.reset()
            engine.run(use_case, 130)
            engine.freeze()
            observation = env.observe()
            chosen = engine.predict(use_case.network, observation)
            result = env.estimate(use_case.network, chosen, observation)
            optimal, opt_result = OptOracle().evaluate(
                env, use_case, observation
            )
            # High accuracy target: INT8-only accelerators drop out.
            strict = use_case_for(build_network(name),
                                  accuracy_target=65.0)
            strict_target, _ = OptOracle().evaluate(
                env, strict, observation
            )
            rows.append({
                "network": name,
                "autoscale": chosen.key,
                "opt": optimal.key,
                "energy_mj": result.energy_mj,
                "opt_energy_mj": opt_result.energy_mj,
                "opt_at_65": strict_target.key,
            })
        return {"rows": rows, "num_actions": len(engine.action_space)}

    result = once(experiment)
    table = format_table(
        ["network", "AutoScale", "Opt", "E (mJ)", "Opt E", "Opt @65%"],
        [[r["network"], r["autoscale"], r["opt"], r["energy_mj"],
          r["opt_energy_mj"], r["opt_at_65"]] for r in result["rows"]],
        title=(f"NPU/TPU extension "
               f"({result['num_actions']} actions)"),
    )
    record_table("extension_npu", table)

    # The action space grew beyond the paper's 66.
    assert result["num_actions"] == 68
    by_net = {r["network"]: r for r in result["rows"]}
    # The NPU/TPU become the oracle targets for the vision networks and
    # MobileBERT respectively.
    assert any("npu" in by_net[n]["opt"] for n in
               ("mobilenet_v3", "inception_v1", "resnet_50"))
    assert by_net["mobilebert"]["opt"].startswith("cloud/")
    # AutoScale discovers the new targets (within 30% of Opt's energy).
    for row in result["rows"]:
        assert row["energy_mj"] <= row["opt_energy_mj"] * 1.3, row
    # A 65% accuracy target disqualifies the INT8-only accelerators for
    # the quantization-sensitive networks.
    assert "npu" not in by_net["mobilenet_v3"]["opt_at_65"]
