"""Majority consensus voting with lazy block recovery (Section 3.1).

The read algorithm (Figure 3) collects votes -- each vote carries the
voter's version number for the requested block and its weight -- and
proceeds only when the gathered weight exceeds the read quorum.  Because
quorum composition guarantees a current copy is present in any quorum, a
stale local copy is simply refreshed from the highest-versioned voter
(one extra block transfer); this *lazy, per-block* recovery is what
block-level replication buys: the scheme never runs a recovery pass when
a site repairs, so voting incurs **no traffic upon recovery** (Section
5.1).

The write algorithm (Figure 4) collects the same votes, takes the maximum
version plus one, and pushes the new block to every site in the quorum,
repairing all operational out-of-date copies as a side effect.

Transmission accounting (Section 5): on a multicast network a read costs
``U`` messages (one vote request plus ``U - 1`` replies; one more if the
local copy was stale) and a write costs ``1 + U`` (votes plus the update
broadcast).  With unique addressing a read costs ``n + U - 2`` (plus one)
and a write ``n + 2U - 3``.  ``U`` is the number of operational sites,
local site included.

An optional *eager repair* mode (``eager_repair=True``) restores the
conventional behaviour of file-level voting schemes -- refreshing every
stale block when a site repairs -- and exists purely as the ablation
baseline for the paper's "no recovery traffic" claim.

**Witnesses.**  Sites flagged ``is_witness`` vote with version numbers
but store no data (Paris, FTCS 1986 -- the paper's reference [10]).
Full-block writes succeed with any quorum (new contents supersede old
ones, so no current copy is needed -- another block-level benefit);
reads additionally require a reachable *data* site holding the quorum's
highest version and raise
:class:`~repro.errors.NoCurrentDataCopyError` otherwise.

**Quorum policies.**  Passing an (RF, R, W)
:class:`~repro.core.policy.QuorumPolicy` replaces the weighted
thresholds with *count-based* ones: a read needs R distinct voters, a
write needs W distinct appliers.  Strict policies (``R + W > RF`` and
``2W > RF``) keep read-latest-write by the same intersection argument
as weighted voting; ``R = 1`` additionally enables a zero-message local
read (strictness then forces ``W = RF``, so a down site observes no
committed writes and its copy is provably current on repair).  Sloppy
policies admit stale reads; the protocol then runs the two classic
mitigations -- hinted handoff (missed updates parked as HINT messages
on fallback sites, replayed on repair) and read repair (a read
observing divergent versions pushes the newest copy to stale voters).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..device.site import Site
    from ..membership.view import View
from ..errors import (
    CorruptBlockError,
    DeviceUnavailableError,
    MembershipError,
    NoCurrentDataCopyError,
    QuorumNotReachedError,
    SiteDownError,
    StaleEpochError,
)
from ..net.message import MessageCategory
from ..net.network import Network
from ..obs.trace import _NULL_SPAN
from ..types import BlockIndex, SchemeName, SiteId, SiteState
from .policy import QuorumPolicy
from .quorum import QuorumSpec
from .protocol import ReplicationProtocol

__all__ = ["VotingProtocol"]


# Module-level message handlers.  Hoisted out of the per-operation
# methods so the hot path does not rebuild a closure object per call;
# everything they need rides in the payload.

def _vote_handler(node, payload):
    """VOTE_REQUEST: answer with the voter's version of the block.

    ``BlockStore.version`` inlined (bounds check + version-dict probe):
    this is the single hottest handler in the repository -- one call
    per voter per read -- and the extra frame is measurable.
    """
    if 0 <= payload < node._num_blocks:
        return node._vget(payload, 0)
    return node.version_of(payload)  # out of range: raise as before


def _batch_vote_handler(node, payload):
    """BATCH_VOTE_REQUEST: one reply mapping every block to a version."""
    vget = node.version_of
    return {b: vget(b) for b in payload}


def _park_hint_handler(node, payload):
    """HINT (parking): stash a missed update durably on a fallback site."""
    node.meta.setdefault("hints", []).append(payload)


def _apply_hint_handler(node, payload):
    """HINT (replay): apply a parked update unless already superseded."""
    _, index, blob, version = payload
    if node.block_version(index) < version:
        node.write_block(index, blob, version)


def _read_repair_handler(node, payload):
    """READ_REPAIR: apply the pushed newest copy unless superseded."""
    index, blob, version = payload
    if node.block_version(index) < version:
        node.write_block(index, blob, version)


def _apply_write_handler(node, payload):
    """WRITE_UPDATE (static group): apply the pushed version.

    The fencing closure in :meth:`VotingProtocol.write` matters only
    once a membership view is installed; without one
    ``_epoch_rejects`` is constantly False, so the static-group
    fan-out shares this handler instead of building a closure (and a
    fenced-list cell) per write.
    """
    index, blob, v = payload
    if node.is_witness:
        node.store.set_version(index, v)
    else:
        node.write_block(index, blob, v)


def _apply_batch_write_handler(node, payload):
    """BATCH_WRITE_UPDATE (static group): apply every pushed version."""
    for index in sorted(payload):
        blob, v = payload[index]
        if node.is_witness:
            node.store.set_version(index, v)
        else:
            node.write_block(index, blob, v)


class VotingProtocol(ReplicationProtocol):
    """Weighted majority consensus voting over a replica group.

    Parameters
    ----------
    sites:
        The replica group.  Site weights must match ``spec.weights``
        positionally.
    network:
        The group's network.
    spec:
        Quorum weights and thresholds; defaults to equal-weight majority
        with the paper's tie-breaking adjustment for even groups.
    eager_repair:
        When True, a repairing site immediately refreshes all its stale
        blocks from a current site (ablation baseline; the paper's
        algorithm leaves repair to later reads and writes).
    policy:
        Optional (RF, R, W) quorum policy.  When set, quorum checks
        become count-based (R distinct voters / W distinct appliers)
        instead of weighted; RF must equal the group size and the group
        may not contain witnesses.  Sloppy policies additionally enable
        hinted handoff and read repair (see
        :class:`~repro.core.policy.QuorumPolicy`).
    """

    def __init__(
        self,
        sites: Sequence['Site'],
        network: Network,
        spec: Optional[QuorumSpec] = None,
        eager_repair: bool = False,
        policy: Optional[QuorumPolicy] = None,
    ) -> None:
        super().__init__(sites, network)
        if spec is None:
            spec = QuorumSpec.majority(len(sites))
        if spec.num_sites != len(sites):
            raise ValueError(
                f"quorum spec covers {spec.num_sites} sites, "
                f"group has {len(sites)}"
            )
        for index, site in enumerate(self.sites):
            if site.weight != spec.weight_of(index):
                raise ValueError(
                    f"site {site.site_id} weight {site.weight} does not "
                    f"match spec weight {spec.weight_of(index)}"
                )
        if policy is not None:
            if policy.rf != len(sites):
                raise ValueError(
                    f"policy replication factor {policy.rf} does not "
                    f"match the group size {len(sites)}"
                )
            if any(s.is_witness for s in sites):
                raise ValueError(
                    "count-based quorum policies do not support "
                    "witness sites (every replica must store data)"
                )
        self.policy = policy
        self._spec = spec
        self._index_of: Dict[SiteId, int] = {
            site.site_id: i for i, site in enumerate(self.sites)
        }
        self._eager_repair = eager_repair
        self._data_ids = [s.site_id for s in self.sites if not s.is_witness]
        if not self._data_ids:
            raise ValueError("a voting group needs at least one data site")
        #: Number of stale local copies refreshed lazily during reads.
        self.lazy_repairs = 0
        self._refresh_fast_thresholds()

    def _refresh_fast_thresholds(self) -> None:
        """Precompute the integer quorum thresholds of the hot path.

        For count-based (RF, R, W) policies and for unit-weight specs
        the strict-greater float predicate over gathered weight is
        equivalent to an integer compare over the distinct-voter count
        (``n > q`` iff ``n >= floor(q) + 1``), so steady-state
        operations replace ``gathered_weight`` + ``meets_read`` /
        ``meets_write`` with one ``count < need`` test.  The ``need``
        values are None for genuinely weighted specs (including the
        even-group tie-breaker weight), which stay on the float path.
        The float companions preserve the exact
        :class:`QuorumNotReachedError` arguments the slow path raises.
        Recomputed whenever the spec can change (construction and view
        commit).
        """
        policy = self.policy
        spec = self._spec
        if policy is not None:
            self._fast_read_need: Optional[int] = policy.r
            self._fast_write_need: Optional[int] = policy.w
            self._fast_read_quorum = float(policy.r)
            self._fast_write_quorum = float(policy.w)
        elif spec.unit_weights:
            self._fast_read_need = spec.read_count_need
            self._fast_write_need = spec.write_count_need
            self._fast_read_quorum = spec.read_quorum
            self._fast_write_quorum = spec.write_quorum
        else:
            self._fast_read_need = None
            self._fast_write_need = None
            self._fast_read_quorum = 0.0
            self._fast_write_quorum = 0.0

    # -- metadata ---------------------------------------------------------

    @property
    def scheme(self) -> SchemeName:
        return SchemeName.VOTING

    @property
    def spec(self) -> QuorumSpec:
        return self._spec

    @property
    def data_site_ids(self) -> List[SiteId]:
        """Sites that store block contents (non-witnesses)."""
        return list(self._data_ids)

    # -- dynamic membership (joint quorums during the window) -----------------

    def install_view(self, view: 'View') -> None:
        """Adopt the initial view; reject unsupported configurations.

        Dynamic membership re-votes members with the majority rule at
        every epoch, so it requires the group to already be a plain
        majority configuration: no witnesses, thresholds at half the
        total weight, and site weights matching the view's votes.
        Count-based (RF, R, W) policies are likewise unsupported: the
        policy pins RF to the group size, which a view change would
        silently invalidate.
        """
        if self.policy is not None:
            raise MembershipError(
                "dynamic membership is not supported with an "
                "(RF, R, W) quorum policy (the policy pins the "
                "replication factor)"
            )
        if any(s.is_witness for s in self.sites):
            raise MembershipError(
                "dynamic membership does not support witness sites"
            )
        half = self._spec.total_weight / 2.0
        if (self._spec.read_quorum != half
                or self._spec.write_quorum != half):
            raise MembershipError(
                "dynamic membership requires majority quorums "
                f"(spec has r={self._spec.read_quorum:g}, "
                f"w={self._spec.write_quorum:g}, total/2={half:g})"
            )
        for site in self.sites:
            if site.weight != view.vote_of(site.site_id):
                raise MembershipError(
                    f"site {site.site_id} weight {site.weight:g} does "
                    f"not match its view vote "
                    f"{view.vote_of(site.site_id):g}"
                )
        super().install_view(view)

    def commit_view_change(self, view: 'View') -> None:
        """Vote reassignment: the committed view defines the new quorums."""
        self._order = list(view.sites)
        for site_id, vote in zip(view.sites, view.votes):
            self._sites[site_id].set_weight(vote)
        self._spec = view.quorum_spec()
        self._index_of = {s: i for i, s in enumerate(view.sites)}
        self._pos_of = {s: i for i, s in enumerate(view.sites)}
        self._data_ids = [
            s.site_id for s in self.sites if not s.is_witness
        ]
        self._refresh_fast_thresholds()
        super().commit_view_change(view)

    def _joint_views(self) -> Optional[Tuple['View', 'View']]:
        """(old, new) while a transition window is open, else None."""
        if self._pending_view is not None:
            return self._view, self._pending_view
        return None

    def _read_shortfall(
        self, voters: set
    ) -> Optional[Tuple[float, float]]:
        """None if ``voters`` form every active read quorum, else the
        (gathered, required) pair of the first view they miss.

        During a transition window the *joint* rule applies: the voters
        must exceed the read threshold of the old AND the new view, so
        a read is guaranteed to intersect the write quorum of the
        latest write no matter which side of the epoch boundary that
        write landed on.

        Under an (RF, R, W) policy the check is count-based: R distinct
        member voters must have answered.
        """
        if self.policy is not None:
            gathered = sum(1 for s in voters if s in self._index_of)
            if gathered < self.policy.r:
                return float(gathered), float(self.policy.r)
            return None
        views = self._joint_views()
        if views is not None:
            for view in views:
                gathered = view.gathered_weight(voters)
                if not gathered > view.read_quorum:
                    return gathered, view.read_quorum
            return None
        gathered = self._spec.gathered_weight(
            self._index_of[s] for s in voters if s in self._index_of
        )
        if not self._spec.meets_read(gathered):
            return gathered, self._spec.read_quorum
        return None

    def _write_shortfall(
        self, voters: set
    ) -> Optional[Tuple[float, float]]:
        """Joint-quorum analogue of :meth:`_read_shortfall` for writes."""
        if self.policy is not None:
            gathered = sum(1 for s in voters if s in self._index_of)
            if gathered < self.policy.w:
                return float(gathered), float(self.policy.w)
            return None
        views = self._joint_views()
        if views is not None:
            for view in views:
                gathered = view.gathered_weight(voters)
                if not gathered > view.write_quorum:
                    return gathered, view.write_quorum
            return None
        gathered = self._spec.gathered_weight(
            self._index_of[s] for s in voters if s in self._index_of
        )
        if not self._spec.meets_write(gathered):
            return gathered, self._spec.write_quorum
        return None

    # -- vote collection -----------------------------------------------------

    def _collect_votes(
        self, origin: 'Site', block: BlockIndex
    ) -> Dict[SiteId, int]:
        """Gather votes for ``block`` from every reachable site.

        Returns a map ``site_id -> version`` over the voters (origin
        included).  During a transition window the broadcast reaches
        the union of both views' members, so the joint quorum checks
        see every reachable voice.
        """
        # Slow-path helper (membership windows, weighted specs); the
        # steady-state read uses the pooled round instead.
        replies: Dict[SiteId, int] = self.network.broadcast_query(  # repro: noqa[RL009]
            origin.site_id,
            request=MessageCategory.VOTE_REQUEST,
            reply=MessageCategory.VOTE_REPLY,
            handler=_vote_handler,
            payload=block,
        )
        # broadcast_query returns a fresh dict per call, so the origin's
        # vote is appended in place rather than after a defensive copy.
        replies[origin.site_id] = origin.block_version(block)
        return replies

    # -- Figure 3: READ -------------------------------------------------------

    def read(self, origin: SiteId, block: BlockIndex) -> bytes:
        site = self.require_origin(origin)
        if site.is_witness:
            raise SiteDownError(origin, "witnesses cannot serve clients")
        policy = self.policy
        if policy is not None and policy.r == 1:
            return self._read_local(site, block)
        network = self._network
        span = (
            self._span("read", origin=origin, block=block)
            if network._tracer.enabled else _NULL_SPAN
        )
        with self._record_read, span:
            rnd = self._borrow_round()
            try:
                network.broadcast_round(
                    origin,
                    MessageCategory.VOTE_REQUEST,
                    MessageCategory.VOTE_REPLY,
                    _vote_handler,
                    block,
                    rnd,
                )
                mine = site.block_version(block)
                rnd.add(origin, mine)
                # The integer fast path is valid only when every
                # replier is a member the float path would count: no
                # joint-quorum window is open and no joiner has been
                # adopted ahead of the view commit that rebuilds
                # ``_index_of``.
                need = self._fast_read_need
                if (need is not None and self._pending_view is None
                        and len(self._order) == len(self._index_of)):
                    if rnd.count < need:
                        raise QuorumNotReachedError(
                            float(rnd.count), self._fast_read_quorum
                        )
                else:
                    shortfall = self._read_shortfall(rnd.id_set())
                    if shortfall is not None:
                        raise QuorumNotReachedError(*shortfall)
                top = rnd.top
                if mine < top:
                    self._refresh_from_voters(
                        site, block, rnd.as_dict(), top
                    )
                    self.lazy_repairs += 1
                try:
                    data = site.read_block(block)
                except CorruptBlockError:
                    # Quorum composition guarantees a current copy
                    # exists in the quorum; self-heal the local one
                    # from it and retry.
                    self.note_corruption(origin, block)
                    site.store.quarantine(block, top)
                    self._refresh_from_voters(
                        site, block, rnd.as_dict(), top
                    )
                    self.note_heal(origin, block)
                    data = site.read_block(block)
                if policy is not None and policy.read_repair:
                    self._send_read_repairs(
                        site, block, rnd.as_dict(), top, data
                    )
                return data
            finally:
                self._release_round(rnd)

    def _read_local(self, site: 'Site', block: BlockIndex) -> bytes:
        """R = 1: serve the read from the local copy, zero messages.

        For a *strict* policy R = 1 forces W = RF, so every committed
        write reached this site while it was up and a freshly repaired
        site's copy is provably current.  For a *sloppy* policy the
        local copy may be stale -- the history checker witnesses that.
        A corrupt local copy falls back to vote collection to locate
        and pull an intact peer copy (self-healing, as in Figure 3).
        """
        origin = site.site_id
        with self._record_read, \
                self._span("read", origin=origin, block=block, local=True):
            try:
                return site.read_block(block)
            except CorruptBlockError:
                self.note_corruption(origin, block)
                versions = self._collect_votes(site, block)
                top = max(versions.values())
                site.store.quarantine(block, top)
                self._refresh_from_voters(site, block, versions, top)
                self.note_heal(origin, block)
                return site.read_block(block)

    def _send_read_repairs(
        self,
        site: 'Site',
        block: BlockIndex,
        versions: Dict[SiteId, int],
        top: int,
        data: bytes,
    ) -> None:
        """Push the newest copy to the stale voters this read observed.

        Each push is a priced READ_REPAIR unicast applied only if still
        newer on arrival (a concurrent write may have superseded it).
        Costs ride on the read that triggered them.
        """
        for target_id in sorted(versions):
            if target_id == site.site_id or versions[target_id] >= top:
                continue
            if self.network.unicast_oneway(
                src=site.site_id,
                dst=target_id,
                category=MessageCategory.READ_REPAIR,
                handler=_read_repair_handler,
                payload=(block, data, top),
            ):
                self.read_repairs += 1

    def _refresh_from_voters(
        self,
        site: 'Site',
        block: BlockIndex,
        versions: Dict[SiteId, int],
        top: int,
    ) -> None:
        """Pull the current copy of ``block`` from the best intact voter.

        Tries the data voters holding the quorum's highest version in id
        order; a voter whose own copy turns out corrupt is quarantined
        and skipped, as is one whose block transfer is lost in transit.
        Raises :class:`NoCurrentDataCopyError` when only witnesses
        attest ``top`` and :class:`CorruptBlockError` when every data
        copy at ``top`` is corrupt.
        """
        data_ids = set(self._data_ids)
        candidates = sorted(
            s for s, v in versions.items()
            if v == top and s != site.site_id and s in data_ids
        )
        if not candidates:
            raise NoCurrentDataCopyError(
                f"version {top} of block {block} is attested only "
                "by witnesses; no data copy is reachable"
            )
        any_intact = False
        for source in candidates:
            holder = self.site(source)
            try:
                data = holder.read_block(block)
            except CorruptBlockError:
                self.note_corruption(source, block)
                holder.store.quarantine(block)
                continue
            any_intact = True
            if self._push_block(
                source=source, target=site, block=block,
                data=data, version=holder.block_version(block),
            ):
                return
        if any_intact:
            # Intact copies exist but no transfer arrived (transient
            # delivery loss) -- the read fails cleanly rather than
            # serving the stale local copy; a retry can succeed.
            raise DeviceUnavailableError(
                f"could not refresh block {block}: every block "
                "transfer from a current copy was lost"
            )
        raise CorruptBlockError(
            block, site.site_id,
            detail=f"every reachable copy at version {top} is corrupt",
        )

    def _push_block(
        self,
        source: SiteId,
        target: 'Site',
        block: BlockIndex,
        data: bytes,
        version: int,
    ) -> bool:
        """The highest-versioned voter pushes the block to the reader.

        The vote request already carried the reader's version number, so
        a single block transfer suffices (the "+1" of Section 5.1).
        Returns whether the transfer was actually delivered.
        """

        def deliver(node, payload):
            index, blob, v = payload
            node.write_block(index, blob, v)

        return self.network.unicast_oneway(
            src=source,
            dst=target.site_id,
            category=MessageCategory.BLOCK_TRANSFER,
            handler=deliver,
            payload=(block, data, version),
        )

    # -- Figure 4: WRITE -----------------------------------------------------

    def write(self, origin: SiteId, block: BlockIndex, data: bytes) -> int:
        site = self.require_origin(origin)
        if site.is_witness:
            raise SiteDownError(origin, "witnesses cannot serve clients")
        network = self._network
        span = (
            self._span("write", origin=origin, block=block)
            if network._tracer.enabled else _NULL_SPAN
        )
        with self._record_write, span:
            rnd = self._borrow_round()
            try:
                network.broadcast_round(
                    origin,
                    MessageCategory.VOTE_REQUEST,
                    MessageCategory.VOTE_REPLY,
                    _vote_handler,
                    block,
                    rnd,
                )
                mine = site.block_version(block)
                rnd.add(origin, mine)
                count = rnd.count
                # Same fast-path validity guard as :meth:`read`.
                need = self._fast_write_need
                if (need is not None and self._pending_view is None
                        and len(self._order) == len(self._index_of)):
                    if count < need:
                        raise QuorumNotReachedError(
                            float(count), self._fast_write_quorum
                        )
                else:
                    shortfall = self._write_shortfall(rnd.id_set())
                    if shortfall is not None:
                        raise QuorumNotReachedError(*shortfall)
                new_version = rnd.top + 1
                # Peer voters in arrival order (the origin's own vote
                # was appended last), matching the old reply-dict
                # iteration order exactly.
                quorum_members = rnd.ids[:count - 1]
                epoch_tag = self.current_epoch()
                blob = bytes(data)
                if self._view is None:
                    # Static group: _epoch_rejects is constantly False,
                    # so the fan-out shares the module-level handler
                    # instead of building a fencing closure per write.
                    fenced = ()
                    delivered = network.broadcast_oneway(
                        src=origin,
                        category=MessageCategory.WRITE_UPDATE,
                        handler=_apply_write_handler,
                        payload=(block, blob, new_version),
                        destinations=quorum_members,
                    )
                else:
                    fenced = []

                    def apply(node, payload):
                        if self._epoch_rejects(node, epoch_tag):
                            # The epoch advanced under this fan-out (a
                            # view change committed between vote
                            # collection and delivery); the member
                            # refuses the stale-tagged update rather
                            # than apply it under quorums that no
                            # longer hold.
                            fenced.append(node.site_id)
                            return
                        index, payload_blob, v = payload
                        if node.is_witness:
                            node.store.set_version(index, v)
                        else:
                            node.write_block(index, payload_blob, v)

                    delivered = network.broadcast_oneway(
                        src=origin,
                        category=MessageCategory.WRITE_UPDATE,
                        handler=apply,
                        payload=(block, blob, new_version),
                        destinations=quorum_members,
                    )
                if fenced:
                    self.epoch_fences += len(fenced)
                if len(delivered) != count - 1 or fenced:
                    # Members that missed the update -- transient
                    # delivery loss or an epoch fence -- cannot be
                    # counted toward the write quorum (quorum
                    # intersection would otherwise admit a stale read).
                    # If what actually applied -- the origin plus the
                    # unfenced delivered members -- still carries a
                    # write quorum, the write stands; otherwise it is
                    # torn.
                    applied_ids = {origin} | (set(delivered) - set(fenced))
                    if (applied_ids != rnd.id_set()
                            and site.state is not SiteState.FAILED):
                        shortfall = self._write_shortfall(applied_ids)
                        if shortfall is not None:
                            if self.recorder is not None:
                                self.recorder.torn_write(
                                    block, blob, new_version
                                )
                            if fenced:
                                raise StaleEpochError(
                                    f"write of block {block} tagged epoch "
                                    f"{epoch_tag} was fenced by "
                                    f"{sorted(set(fenced))}"
                                )
                            raise QuorumNotReachedError(*shortfall)
                if site.state is SiteState.FAILED:
                    # The origin crashed mid-fan-out (fault injection):
                    # some quorum members applied the update, some did
                    # not, and the local copy never will -- a torn group
                    # write.  The higher version at whichever sites took
                    # it supersedes stale copies through the ordinary
                    # lazy-repair path.
                    if self.recorder is not None:
                        self.recorder.torn_write(block, blob, new_version)
                    raise SiteDownError(
                        origin, "failed during the write fan-out"
                    )
                site.write_block(block, blob, new_version)
                if self.policy is not None and self.policy.hinted_handoff:
                    applied_ids = {origin} | (set(delivered) - set(fenced))
                    self._park_hints(
                        site, applied_ids, block, blob, new_version
                    )
                return new_version
            finally:
                self._release_round(rnd)

    def _park_hints(
        self,
        origin_site: 'Site',
        applied_ids: set,
        block: BlockIndex,
        data: bytes,
        version: int,
    ) -> None:
        """Park a committed write's missed updates for down members.

        Each FAILED member's update is stashed as a hint
        ``(owner, block, data, version)`` on a deterministic fallback
        chosen among the sites that applied the write (owner id modulo
        the fallback count), to be replayed when the owner repairs.
        Parking on the origin itself is a local durable append (no
        message); any other fallback is reached with a priced HINT
        unicast whose cost rides on the write.
        """
        fallbacks = sorted(applied_ids)
        for member_id in self._order:
            if member_id in applied_ids:
                continue
            if self.site(member_id).state is not SiteState.FAILED:
                # An up member that merely missed the delivery is
                # reachable; ordinary lazy repair covers it.
                continue
            holder_id = fallbacks[member_id % len(fallbacks)]
            hint = (member_id, block, data, version)
            if holder_id == origin_site.site_id:
                origin_site.meta.setdefault("hints", []).append(hint)
                self.hints_parked += 1
            elif self.network.unicast_oneway(
                src=origin_site.site_id,
                dst=holder_id,
                category=MessageCategory.HINT,
                handler=_park_hint_handler,
                payload=hint,
            ):
                self.hints_parked += 1

    # -- batched operations ---------------------------------------------------

    def read_batch(
        self, origin: SiteId, blocks: Sequence[BlockIndex]
    ) -> Dict[BlockIndex, bytes]:
        """Read a whole batch behind ONE vote-collection round.

        The quorum check covers every block at once (the same voters
        answered for all of them); stale local copies are refreshed with
        one scatter-gather transfer per source site instead of one
        transfer per block.  Per-block semantics -- quorum intersection,
        lazy repair, corruption healing -- are identical to :meth:`read`.
        """
        ordered = list(dict.fromkeys(blocks))
        if not ordered:
            return {}
        site = self.require_origin(origin)
        if site.is_witness:
            raise SiteDownError(origin, "witnesses cannot serve clients")
        network = self._network
        span = (
            self._span("read_batch", origin=origin, batch=len(ordered))
            if network._tracer.enabled else _NULL_SPAN
        )
        with self._record_batch_read, span:
            rnd = self._borrow_round()
            try:
                network.broadcast_round(
                    origin,
                    MessageCategory.BATCH_VOTE_REQUEST,
                    MessageCategory.BATCH_VOTE_REPLY,
                    _batch_vote_handler,
                    tuple(ordered),
                    rnd,
                )
                mine = {b: site.block_version(b) for b in ordered}
                rnd.add(origin, mine)
                # Same fast-path validity guard as :meth:`read`.
                need = self._fast_read_need
                if (need is not None and self._pending_view is None
                        and len(self._order) == len(self._index_of)):
                    if rnd.count < need:
                        raise QuorumNotReachedError(
                            float(rnd.count), self._fast_read_quorum
                        )
                else:
                    shortfall = self._read_shortfall(rnd.id_set())
                    if shortfall is not None:
                        raise QuorumNotReachedError(*shortfall)
                ids = rnd.ids
                values = rnd.values
                count = rnd.count
                tops: Dict[BlockIndex, int] = {}
                for b in ordered:
                    top = 0
                    for k in range(count):
                        v = values[k][b]
                        if v > top:
                            top = v
                    tops[b] = top
                # Per-block voter maps are materialized lazily: most
                # blocks of a batch are typically current everywhere,
                # and only the stale/corrupt ones need the
                # site -> version breakdown.
                per_block: Dict[BlockIndex, Dict[SiteId, int]] = {}  # repro: noqa[RL009] -- lazy, stale blocks only

                def versions_of(b: BlockIndex) -> Dict[SiteId, int]:
                    found = per_block.get(b)
                    if found is None:
                        found = {
                            ids[k]: values[k][b] for k in range(count)
                        }
                        per_block[b] = found
                    return found

                stale = [b for b in ordered if mine[b] < tops[b]]
                if stale:
                    self._batch_refresh(
                        site, stale,
                        {b: versions_of(b) for b in stale}, tops,
                    )
                    self.lazy_repairs += len(stale)
                out: Dict[BlockIndex, bytes] = {}
                for b in ordered:
                    try:
                        out[b] = site.read_block(b)
                    except CorruptBlockError:
                        self.note_corruption(origin, b)
                        site.store.quarantine(b, tops[b])
                        self._refresh_from_voters(
                            site, b, versions_of(b), tops[b]
                        )
                        self.note_heal(origin, b)
                        out[b] = site.read_block(b)
                return out
            finally:
                self._release_round(rnd)

    def _batch_refresh(
        self,
        site: 'Site',
        stale: Sequence[BlockIndex],
        per_block: Dict[BlockIndex, Dict[SiteId, int]],
        tops: Dict[BlockIndex, int],
    ) -> None:
        """Refresh all stale blocks with one transfer per source site.

        Blocks are grouped by their best current holder; each holder
        ships its group in a single BATCH_BLOCK_TRANSFER.  Blocks whose
        primary copy turns out corrupt (or whose transfer is dropped)
        fall back to the sequential per-block refresh path, preserving
        its quarantine/heal semantics exactly.
        """
        data_ids = set(self._data_ids)
        by_source: Dict[SiteId, List[BlockIndex]] = {}  # repro: noqa[RL009] -- repair dispatch, cold
        for b in stale:
            candidates = sorted(
                s for s, v in per_block[b].items()
                if v == tops[b] and s != site.site_id and s in data_ids
            )
            if not candidates:
                raise NoCurrentDataCopyError(
                    f"version {tops[b]} of block {b} is attested only "
                    "by witnesses; no data copy is reachable"
                )
            by_source.setdefault(candidates[0], []).append(b)

        def deliver(node, payload):
            for index in sorted(payload):
                blob, v = payload[index]
                node.write_block(index, blob, v)

        fallback: List[BlockIndex] = []
        for source_id in sorted(by_source):
            holder = self.site(source_id)
            shipment: Dict[BlockIndex, Tuple[bytes, int]] = {}
            for b in by_source[source_id]:
                try:
                    shipment[b] = (
                        holder.read_block(b), holder.block_version(b)
                    )
                except CorruptBlockError:
                    self.note_corruption(source_id, b)
                    holder.store.quarantine(b)
                    fallback.append(b)
            if not shipment:
                continue
            delivered = self.network.unicast_oneway(
                src=source_id,
                dst=site.site_id,
                category=MessageCategory.BATCH_BLOCK_TRANSFER,
                handler=deliver,
                payload=shipment,
            )
            if not delivered:
                fallback.extend(sorted(shipment))
        for b in fallback:
            self._refresh_from_voters(site, b, per_block[b], tops[b])

    def write_batch(
        self, origin: SiteId, updates: Mapping[BlockIndex, bytes]
    ) -> Dict[BlockIndex, int]:
        """Write a whole batch behind ONE vote round and ONE fan-out.

        Version assignment is per block (each block's quorum maximum
        plus one) and a mid-fan-out origin crash or an insufficient
        applied weight tears *every* block of the batch individually,
        exactly as :meth:`write` tears a single block.  No cross-block
        atomicity is claimed.
        """
        blocks = sorted(updates)
        if not blocks:
            return {}
        site = self.require_origin(origin)
        if site.is_witness:
            raise SiteDownError(origin, "witnesses cannot serve clients")
        network = self._network
        span = (
            self._span("write_batch", origin=origin, batch=len(blocks))
            if network._tracer.enabled else _NULL_SPAN
        )
        with self._record_batch_write, span:
            rnd = self._borrow_round()
            try:
                network.broadcast_round(
                    origin,
                    MessageCategory.BATCH_VOTE_REQUEST,
                    MessageCategory.BATCH_VOTE_REPLY,
                    _batch_vote_handler,
                    tuple(blocks),
                    rnd,
                )
                mine = {b: site.block_version(b) for b in blocks}
                rnd.add(origin, mine)
                count = rnd.count
                # Same fast-path validity guard as :meth:`read`.
                need = self._fast_write_need
                if (need is not None and self._pending_view is None
                        and len(self._order) == len(self._index_of)):
                    if count < need:
                        raise QuorumNotReachedError(
                            float(count), self._fast_write_quorum
                        )
                else:
                    shortfall = self._write_shortfall(rnd.id_set())
                    if shortfall is not None:
                        raise QuorumNotReachedError(*shortfall)
                values = rnd.values
                new_versions: Dict[BlockIndex, int] = {}
                for b in blocks:
                    top = 0
                    for k in range(count):
                        v = values[k][b]
                        if v > top:
                            top = v
                    new_versions[b] = top + 1
                payload = {
                    b: (bytes(updates[b]), new_versions[b]) for b in blocks
                }
                quorum_members = rnd.ids[:count - 1]
                epoch_tag = self.current_epoch()
                if self._view is None:
                    # Static group: shares the module-level handler (see
                    # :meth:`write`).
                    fenced = ()
                    delivered = network.broadcast_oneway(
                        src=origin,
                        category=MessageCategory.BATCH_WRITE_UPDATE,
                        handler=_apply_batch_write_handler,
                        payload=payload,
                        destinations=quorum_members,
                    )
                else:
                    fenced = []

                    def apply(node, payload):
                        if self._epoch_rejects(node, epoch_tag):
                            fenced.append(node.site_id)
                            return
                        for index in sorted(payload):
                            blob, v = payload[index]
                            if node.is_witness:
                                node.store.set_version(index, v)
                            else:
                                node.write_block(index, blob, v)

                    delivered = network.broadcast_oneway(
                        src=origin,
                        category=MessageCategory.BATCH_WRITE_UPDATE,
                        handler=apply,
                        payload=payload,
                        destinations=quorum_members,
                    )
                if fenced:
                    self.epoch_fences += len(fenced)
                if len(delivered) != count - 1 or fenced:
                    applied_ids = {origin} | (set(delivered) - set(fenced))
                    if (applied_ids != rnd.id_set()
                            and site.state is not SiteState.FAILED):
                        shortfall = self._write_shortfall(applied_ids)
                        if shortfall is not None:
                            if self.recorder is not None:
                                for b in blocks:
                                    self.recorder.torn_write(
                                        b, bytes(updates[b]),
                                        new_versions[b],
                                    )
                            if fenced:
                                raise StaleEpochError(
                                    f"batched write of {len(blocks)} "
                                    f"blocks tagged epoch {epoch_tag} "
                                    f"was fenced by "
                                    f"{sorted(set(fenced))}"
                                )
                            raise QuorumNotReachedError(*shortfall)
                if site.state is SiteState.FAILED:
                    # Mid-fan-out origin crash: every block of the batch
                    # is torn the same way a single-block write would be.
                    if self.recorder is not None:
                        for b in blocks:
                            self.recorder.torn_write(
                                b, bytes(updates[b]), new_versions[b]
                            )
                    raise SiteDownError(
                        origin, "failed during the batched write fan-out"
                    )
                for b in blocks:
                    site.write_block(b, bytes(updates[b]), new_versions[b])
                return new_versions
            finally:
                self._release_round(rnd)

    # -- availability & failure handling -----------------------------------------

    def is_available(self) -> bool:
        """A read quorum of up sites exists (equation 1's event).

        With witnesses, at least one *data* site must also be up; this
        matches read availability under write-frequent workloads (every
        write repairs all operational stale copies in its quorum, so any
        up data site is current).
        """
        operational = [
            s for s in self.sites if s.state is not SiteState.FAILED
        ]
        if self.policy is not None:
            # Count-based: R operational replicas can serve reads (the
            # group has no witnesses, so any of them is a data site).
            return len(operational) >= self.policy.r
        views = self._joint_views()
        if views is not None:
            ids = {s.site_id for s in operational}
            if not all(v.meets_read(ids) for v in views):
                return False
        else:
            up = [
                self._index_of[s.site_id] for s in operational
                if s.site_id in self._index_of
            ]
            if not self._spec.read_available(up):
                return False
        return any(not s.is_witness for s in operational)

    def on_site_failed(self, site_id: SiteId) -> None:
        self.site(site_id).crash()

    def on_site_repaired(self, site_id: SiteId) -> None:
        """Repair under voting: rejoin immediately, no recovery traffic.

        Stale blocks are refreshed lazily by later reads and writes --
        the quorum intersection property makes that safe.
        """
        site = self.site(site_id)
        site.set_state(SiteState.AVAILABLE)
        self._sync_epoch(site)
        if self.policy is not None and self.policy.hinted_handoff:
            self._replay_hints(site)
        if self._eager_repair:
            self._eager_refresh(site)

    def _replay_hints(self, target: 'Site') -> None:
        """Deliver the hints parked for a freshly repaired site.

        Every operational fallback replays its hints owned by
        ``target`` as priced HINT unicasts, applied only if still newer
        than the owner's copy.  Delivered hints are dropped; a hint
        whose replay is lost in transit stays parked for the owner's
        next repair.  Replay traffic is attributed to recovery.
        """
        start = self.meter.total
        for holder in self.operational_sites():
            if holder.site_id == target.site_id:
                continue
            hints = holder.meta.get("hints")
            if not hints:
                continue
            keep = []
            for hint in hints:
                if hint[0] != target.site_id:
                    keep.append(hint)
                    continue
                if self.network.unicast_oneway(
                    src=holder.site_id,
                    dst=target.site_id,
                    category=MessageCategory.HINT,
                    handler=_apply_hint_handler,
                    payload=hint,
                ):
                    self.hints_replayed += 1
                else:
                    keep.append(hint)
            holder.meta["hints"] = keep
        if self.meter.total != start:
            self._record_recovery(start)

    def _eager_refresh(self, site: 'Site') -> None:
        """Ablation baseline: refresh every stale block upon repair."""
        start = self.meter.total
        peers = [
            s for s in self.sites
            if s is not site and s.is_available and not s.is_witness
        ]
        if not peers:
            self._record_recovery(start)
            return
        source = max(peers, key=lambda s: (s.version_total(), -s.site_id))

        def serve(node, payload):
            vector = payload
            stale = vector.stale_relative_to(node.version_vector())
            blocks = {}
            for b in stale:
                try:
                    blocks[b] = (node.read_block(b), node.block_version(b))
                except CorruptBlockError:
                    self.note_corruption(node.site_id, b)
                    node.store.quarantine(b)
            return blocks

        delivered, blocks = self.network.unicast_query(
            src=site.site_id,
            dst=source.site_id,
            request=MessageCategory.VERSION_VECTOR_REQUEST,
            reply=MessageCategory.VERSION_VECTOR_REPLY,
            handler=serve,
            payload=site.version_vector(),
        )
        if delivered:
            for block, (data, version) in sorted(blocks.items()):
                if site.is_witness:
                    site.store.set_version(block, version)
                else:
                    site.write_block(block, data, version)
        self._record_recovery(start)
