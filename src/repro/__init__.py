"""repro — cloud workflow provisioning & scheduling simulator.

A from-scratch reproduction of Frincu, Genaud & Gossa, *Comparing
Provisioning and Scheduling Strategies for Workflows on Clouds*
(CloudFlow @ IPDPS 2013): five VM provisioning policies, the HEFT /
CPA-Eager / Gain / AllPar1LnS[Dyn] allocation strategies, an EC2-style
platform model with BTU billing, and a discrete-event simulator with an
experiment harness regenerating every figure and table of the paper.

The top level re-exports :mod:`repro.api`, the one curated public
surface; everything else is imported from its subpackage.

Quickstart::

    from repro import montage, CloudPlatform, HeftScheduler, simulate_schedule

    wf = montage()                     # the paper's 24-task Montage
    platform = CloudPlatform.ec2()     # Table II prices, BTU = 3600 s
    sched = HeftScheduler("StartParNotExceed").schedule(
        wf, platform, itype=platform.itype("medium"))
    print(sched.makespan, sched.total_cost, sched.total_idle_seconds)
    simulate_schedule(sched)           # DES cross-check
"""

# defined before the re-export: repro.api imports it from here
__version__ = "1.7.0"

from repro import api  # noqa: E402
from repro.api import *  # noqa: E402,F401,F403

__all__ = api.__all__
