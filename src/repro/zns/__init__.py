"""OX-ZNS: a Zoned Namespace FTL on top of the Open-Channel SSD.

§2.3 of the paper: "ZNS can be implemented as an application-specific
Flash Translation Layer on top of Open-Channel SSDs ... It should be
straightforward to define a LightNVM target that exposes the ZNS
interface through a host-based FTL on top of Open-Channel SSDs, but this
has not — to the best of our knowledge — been released or even
announced."  Figure 1 places the resulting artifact as *OX-ZNS*.  This
package is that target: an open zone holds a set of chunks from the
shared :class:`~repro.ox.media.ChunkPool`, the host sees the ZNS zone
state machine (EMPTY/OPEN/FULL + reset), and the FTL handles placement,
striping and wear.
"""

from repro.zns.zone import Zone, ZoneState
from repro.zns.ftl import OXZns, ZnsConfig

__all__ = ["Zone", "ZoneState", "OXZns", "ZnsConfig"]
