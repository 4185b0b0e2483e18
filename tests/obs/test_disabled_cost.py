"""With observability off the SOAP path makes no call into ``repro.obs``.

C9 shows that disabled observability costs no byte and no virtual time;
this pins that it costs no host work on the call path either.  A profile
of one bare legacy SOAP exchange and of one bridged invoke must see no
frame of a ``repro.obs`` function: every span call, activation and
histogram update there is guarded by ``span.recording`` or
``obs.enabled``.
"""

import os
import sys
from collections import Counter

import repro.obs
from repro.apps.home import build_smart_home
from repro.net.simkernel import Simulator
from repro.soap.client import SoapClient
from repro.soap.server import SoapServer

OBS_DIR = os.path.dirname(repro.obs.__file__) + os.sep


def obs_frames(run) -> Counter:
    """``repro.obs`` functions entered while ``run()`` runs, by caller."""
    frames: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            caller = frame.f_back.f_code
            frames[(frame.f_code.co_name, caller.co_filename, caller.co_name)] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return frames


def test_bare_legacy_exchange_makes_no_obs_call(sim, two_hosts):
    client_stack, server_stack = two_hosts
    server = SoapServer(server_stack)
    server.register_service("Calc", lambda operation, args: args[0] + args[1])
    client = SoapClient(client_stack)
    address = server_stack.local_address()
    answer = []
    frames = obs_frames(
        lambda: answer.append(sim.run_until_complete(client.call(address, "Calc", "add", [40, 2])))
    )
    assert answer == [42]
    assert frames == Counter()


def test_bridged_invoke_makes_no_obs_call():
    sim = Simulator()
    home = build_smart_home(sim, with_havi=False, with_mail=False)
    home.connect()
    home.run(5.0)
    answer = []
    frames = obs_frames(
        lambda: answer.append(home.invoke_from("jini", "X10_A1_hall_lamp", "turn_on"))
    )
    assert answer == [True]
    assert frames == Counter()
