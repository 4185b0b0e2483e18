"""The Universal Remote Controller (paper Figure 5).

"It is an X10 remote controller that allows us to control not only X10
devices but also Jini and HAVi services that are connected via our
middleware.  The person in the picture is controlling a Jini Laserdisc
with an X10 remote controller, and he can also control a HAVi DV camera."

The flow this class wires up, end to end on real simulated wires:

handset button → powerline frames → CM11A hears them → serial poll upload
→ X10 controller event → X10 PCM button binding → VSG neutral call → SOAP
over the backbone → target island gateway → target PCM → native
invocation (RMI for the Laserdisc, HAVi message for the camera).
"""

from __future__ import annotations

from typing import Any

from repro.errors import FrameworkError
from repro.x10.codes import X10Address, X10Function
from repro.apps.home import SmartHome


class UniversalRemote:
    """Figure 5's application: an X10 handset driving every island."""

    #: The default button layout used by examples and benchmarks.
    DEFAULT_LAYOUT = {
        ("A4", X10Function.ON): ("Laserdisc", "play", []),
        ("A4", X10Function.OFF): ("Laserdisc", "stop", []),
        ("A5", X10Function.ON): ("DV_Camera_camera", "start_capture", []),
        ("A5", X10Function.OFF): ("DV_Camera_camera", "stop_capture", []),
        ("A6", X10Function.ON): ("Digital_TV_display", "power_on", []),
        ("A6", X10Function.OFF): ("Digital_TV_display", "power_off", []),
        ("A7", X10Function.ON): ("InternetMail", "send",
                                 ["user@home.sim", "doorbell", "someone pressed A7"]),
    }

    def __init__(self, home: SmartHome) -> None:
        if "x10" not in home.islands or home.handset is None:
            raise FrameworkError("the home has no X10 island to host the remote")
        self.home = home
        self.pcm = home.islands["x10"].pcm
        self.handset = home.handset

    # -- configuration ------------------------------------------------------------

    def bind(
        self,
        button: str | X10Address,
        service: str,
        operation: str,
        args: list[Any] | None = None,
        function: X10Function = X10Function.ON,
    ) -> None:
        """Bind a handset button to any service the framework can reach."""
        address = X10Address.parse(button) if isinstance(button, str) else button
        self.pcm.bind_button(address, service, operation, args, function)

    def bind_default_layout(self) -> int:
        """Install :data:`DEFAULT_LAYOUT`; returns the number of bindings.
        Buttons whose target service is absent (e.g. a home built without
        the mail island) are skipped."""
        bound = 0
        available = set(self.pcm.imported) | set(self.pcm.exported)
        for (button, function), (service, operation, args) in self.DEFAULT_LAYOUT.items():
            if service not in available:
                continue
            self.bind(button, service, operation, args, function)
            bound += 1
        return bound

    # -- use ------------------------------------------------------------

    def press(
        self,
        button: str | X10Address,
        function: X10Function = X10Function.ON,
        settle: float = 5.0,
    ) -> None:
        """Press a button and run the simulation until the powerline,
        serial poll and bridged invocation have all settled."""
        address = X10Address.parse(button) if isinstance(button, str) else button
        self.handset.press(address, function)
        self.home.sim.run_for(settle)

    def invocation_counts(self) -> dict[str, int]:
        """service.operation -> times a button press triggered it."""
        counts: dict[str, int] = {}
        for binding in self.pcm.bindings.values():
            key = f"{binding.service}.{binding.operation}"
            counts[key] = counts.get(key, 0) + binding.invocations
        return counts
