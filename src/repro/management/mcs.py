"""Management Center Server (paper §II-D, "Enterprise Features").

The MCS is the enterprise abstraction above the raw chassis management:
users never touch the physical Falcon interface directly.  Instead they
hold *roles* and operate only on resources they own:

- **administrators** manage users, connect hosts, install devices, change
  modes, and export the event log;
- **users** may attach/detach (allocate/deallocate) only devices that an
  administrator granted them, to hosts they are entitled to — "users can
  control their own environment, yet not have any access to other users'
  resources."

Every operation is permission-checked and audit-logged.  The MCS also
exposes the read-only monitoring views of §II-B (resource list, topology
view, traffic, event log export) and config import/export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..fabric.falcon import Falcon4016
from ..sim import Environment
from .bmc import BMC
from .events import EventLog

__all__ = ["ManagementCenterServer", "Role", "PermissionError_",
           "UserAccount"]


class Role(str, Enum):
    ADMINISTRATOR = "administrator"
    USER = "user"


class PermissionError_(Exception):
    """An operation was attempted without the required rights."""


@dataclass
class UserAccount:
    """One MCS account with its resource grants."""

    username: str
    role: Role
    #: Device node names this user may allocate/deallocate.
    granted_devices: set = field(default_factory=set)
    #: Host ids this user may target.
    granted_hosts: set = field(default_factory=set)
    last_login: Optional[float] = None


class ManagementCenterServer:
    """Multi-tenant management layer over one or more Falcon chassis."""

    def __init__(self, env: Environment):
        self.env = env
        self.log = EventLog()
        self.users: dict[str, UserAccount] = {
            "admin": UserAccount("admin", Role.ADMINISTRATOR),
        }
        self.falcons: dict[str, Falcon4016] = {}
        self.bmcs: dict[str, BMC] = {}
        self.hosts: list[str] = []

    # -- chassis & host registry ------------------------------------------------
    def register_falcon(self, falcon: Falcon4016) -> BMC:
        """Adopt a chassis: wire its events in and stand up its BMC."""
        if falcon.name in self.falcons:
            raise ValueError(f"{falcon.name} already registered")
        self.falcons[falcon.name] = falcon
        falcon.set_event_sink(self.record_event)
        bmc = BMC(self.env, f"{falcon.name}/bmc", self.log)
        for drawer in falcon.drawers:
            bmc.add_sensor(f"{drawer.name}/inlet")
        self.bmcs[falcon.name] = bmc
        self.log.record(self.env.now, "falcon_registered", "system",
                        falcon=falcon.name)
        return bmc

    def register_host(self, host_id: str) -> None:
        if host_id in self.hosts:
            raise ValueError(f"{host_id} already registered")
        self.hosts.append(host_id)
        self.log.record(self.env.now, "host_registered", "system",
                        host=host_id)

    def record_event(self, kind: str, details: dict) -> None:
        """Sink for chassis-originated events."""
        details = dict(details)
        when = details.pop("time", self.env.now)
        self.log.record(when, kind, "chassis", **details)

    # -- accounts ---------------------------------------------------------------
    def create_user(self, actor: str, username: str,
                    role: Role = Role.USER) -> UserAccount:
        self._require_admin(actor)
        if username in self.users:
            raise ValueError(f"user {username!r} already exists")
        account = UserAccount(username, role)
        self.users[username] = account
        self.log.record(self.env.now, "user_created", actor,
                        username=username, role=role.value)
        return account

    def login(self, username: str) -> UserAccount:
        account = self._account(username)
        account.last_login = self.env.now
        self.log.record(self.env.now, "login", username)
        return account

    def grant_device(self, actor: str, username: str,
                     device_node: str) -> None:
        self._require_admin(actor)
        self._require_installed(device_node)
        other = self._current_grantee(device_node)
        if other is not None and other != username:
            raise PermissionError_(
                f"{device_node!r} is already granted to {other!r}")
        self._account(username).granted_devices.add(device_node)
        self.log.record(self.env.now, "device_granted", actor,
                        username=username, device=device_node)

    def revoke_device(self, actor: str, username: str,
                      device_node: str) -> None:
        self._require_admin(actor)
        self._account(username).granted_devices.discard(device_node)
        self.log.record(self.env.now, "device_revoked", actor,
                        username=username, device=device_node)

    def grant_host(self, actor: str, username: str, host_id: str) -> None:
        self._require_admin(actor)
        if host_id not in self.hosts:
            raise KeyError(f"unknown host {host_id!r}")
        self._account(username).granted_hosts.add(host_id)
        self.log.record(self.env.now, "host_granted", actor,
                        username=username, host=host_id)

    # -- user-level composability operations --------------------------------------
    def attach(self, actor: str, device_node: str, host_id: str) -> None:
        """Allocate a granted device to a granted host (user operation)."""
        account = self._account(actor)
        if account.role is not Role.ADMINISTRATOR:
            if device_node not in account.granted_devices:
                raise PermissionError_(
                    f"{actor!r} has no grant for {device_node!r}")
            if host_id not in account.granted_hosts:
                raise PermissionError_(
                    f"{actor!r} has no grant for host {host_id!r}")
        falcon = self._falcon_of(device_node)
        falcon.allocate(device_node, host_id)
        self.log.record(self.env.now, "attach", actor,
                        device=device_node, host=host_id)

    def detach(self, actor: str, device_node: str) -> None:
        """Release a device allocation (owner or admin only)."""
        account = self._account(actor)
        if account.role is not Role.ADMINISTRATOR \
                and device_node not in account.granted_devices:
            raise PermissionError_(
                f"{actor!r} has no grant for {device_node!r}")
        falcon = self._falcon_of(device_node)
        falcon.deallocate(device_node)
        self.log.record(self.env.now, "detach", actor, device=device_node)

    # -- monitoring views ----------------------------------------------------------
    def resource_list(self) -> list[dict]:
        """The §II-B resource list: every slot across every chassis."""
        out = []
        for falcon in self.falcons.values():
            for drawer in falcon.drawers:
                for slot in drawer.slots:
                    out.append({
                        "falcon": falcon.name,
                        "slot": slot.label,
                        "device": slot.device,
                        "owner": slot.owner,
                        "link_speed": (slot.link.spec.name
                                       if slot.link else None),
                    })
        return out

    def topology_view(self) -> dict:
        """The §II-B topology view: cabling and allocation per chassis."""
        return {name: falcon.export_config()
                for name, falcon in self.falcons.items()}

    def export_event_log(self, actor: str) -> list[dict]:
        self._require_admin(actor)
        return self.log.export()

    def export_configuration(self, falcon_name: str) -> dict:
        return self._named_falcon(falcon_name).export_config()

    def import_configuration(self, actor: str, falcon_name: str,
                             config: dict) -> None:
        self._require_admin(actor)
        self._named_falcon(falcon_name).apply_allocations(config)
        self.log.record(self.env.now, "config_imported", actor,
                        falcon=falcon_name)

    def health(self, falcon_name: str) -> dict:
        return self.bmcs[falcon_name].health_report()

    # -- helpers ----------------------------------------------------------------
    def _account(self, username: str) -> UserAccount:
        account = self.users.get(username)
        if account is None:
            raise KeyError(f"unknown user {username!r}")
        return account

    def _require_admin(self, actor: str) -> None:
        if self._account(actor).role is not Role.ADMINISTRATOR:
            raise PermissionError_(f"{actor!r} is not an administrator")

    def _require_installed(self, device_node: str) -> None:
        self._falcon_of(device_node)

    def _falcon_of(self, device_node: str) -> Falcon4016:
        for falcon in self.falcons.values():
            if falcon.slot_of(device_node) is not None:
                return falcon
        raise KeyError(f"{device_node!r} is not installed in any chassis")

    def _named_falcon(self, name: str) -> Falcon4016:
        falcon = self.falcons.get(name)
        if falcon is None:
            raise KeyError(f"unknown falcon {name!r}")
        return falcon

    def _current_grantee(self, device_node: str) -> Optional[str]:
        for account in self.users.values():
            if device_node in account.granted_devices:
                return account.username
        return None
