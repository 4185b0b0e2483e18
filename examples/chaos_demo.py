#!/usr/bin/env python3
"""Automatic video recording under injected chaos.

The Section 2 auto-recording scenario again — but this time the Ethernet
backbone partitions mid-evening, isolating the Jini island (agent + VCR)
from the directory, the guide and the mail island while a recording is in
flight.  The resilience layer keeps every cross-island call bounded:

- the completion mail attempted *during* the partition fails fast with a
  deadline (after a degraded-mode directory read from the VsrClient cache)
  instead of hanging the agent;
- recording itself never stops — the VCR is island-local, so the partition
  cannot touch it;
- once the partition heals, the circuit breaker's half-open probe restores
  mail service and the remaining recordings mail normally.

Everything is seeded: run it twice, get the same FaultReport byte-for-byte.

Run:  python examples/chaos_demo.py
"""

from repro.apps import RecordingAgent, TvProgramService, build_smart_home
from repro.apps.auto_recording import UserProfile
from repro.core.resilience import CallPolicy
from repro.faults import FaultInjector, FaultPlan, Partition

POLICY = CallPolicy(
    deadline=3.0,
    max_retries=1,
    breaker_threshold=2,
    breaker_reset_timeout=20.0,
    directory_deadline=2.0,
    seed=5,
)

#: Isolate the Jini gateway from everything on the backbone for 70 s,
#: starting while the first planned recording is on tape.
PLAN = FaultPlan(seed=5).at(
    250.0, Partition.of("backbone", {"gw-jini"}, duration=70.0)
)


def main() -> None:
    home = build_smart_home(policy=POLICY)
    home.connect()

    guide = TvProgramService(home.mm)
    home.sim.run_until_complete(guide.publish())

    profile = UserProfile(genres=("technology",), keywords=("movie",),
                          mail_to="user@home.sim")
    agent = RecordingAgent(home, profile)

    # Prime the jini gateway's VSR cache with the mail island's location so
    # the partition demonstrates a degraded-mode (stale cache) lookup.
    home.invoke_from("jini", "InternetMail", "send",
                     ["user@home.sim", "Chaos evening", "brace yourself"])

    planned = home.sim.run_until_complete(agent.plan())
    print(f"agent planned {len(planned)} recordings:")
    for recording in planned:
        print(f"  {recording.title} (ch{recording.channel}, "
              f"{recording.start:.0f}s-{recording.end:.0f}s)")

    injector = FaultInjector(home.network, PLAN, mm=home.mm).arm()
    for entry in PLAN.entries:
        print(f"armed: t={entry.time:g}s {entry.action.describe()}")

    jini = home.island("jini").gateway
    print("\nfast-forwarding through the chaotic evening...")
    for checkpoint in (200, 260, 320, 390, 530):
        home.run(checkpoint - home.sim.now)
        breaker = jini.resilience.breakers.get("mail")
        state = breaker.state if breaker is not None else "closed"
        print(f"  [{home.sim.now:5.0f}s] VCR={home.vcr.get_state():<6} "
              f"mails={agent.mails_sent} mail-breaker={state:<9} "
              f"degraded_reads={jini.vsr.degraded_reads}")

    print("\noutcome:")
    for recording in agent.schedule:
        note = f" ({recording.error})" if recording.error else ""
        print(f"  {recording.title}: {recording.state}{note}")
    print(f"tape contents: {[r['title'] for r in home.vcr.list_recordings()]}")
    inbox = home.mail_server.store.mailbox("user@home.sim")
    print(f"mails delivered: {[m.subject for m in inbox.messages]}")

    print()
    print(injector.report().render())

    print("\njini gateway resilience counters:")
    executor = jini.resilience
    counters = {
        "attempts": executor.attempts,
        "successes": executor.successes,
        "failures": executor.failures,
        "retries": executor.retries,
        "timeouts": executor.timeouts,
        "stale_refreshes": jini.stale_refreshes,
        "vsr_degraded_reads": jini.vsr.degraded_reads,
        "vsr_lookup_failures": jini.vsr.lookup_failures,
    }
    for key, value in counters.items():
        print(f"  {key:>20}: {value}")
    for island, breaker in sorted(executor.breakers.items()):
        fields = {"state": breaker.state, "opens": breaker.opens,
                  "fast_failures": breaker.fast_failures, "probes": breaker.probes}
        print(f"  breaker[{island}]: {fields}")


if __name__ == "__main__":
    main()
