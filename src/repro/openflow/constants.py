"""OpenFlow 1.3 protocol constants (the subset the prototype uses).

Numeric values follow the OpenFlow 1.3.5 specification.
"""

from __future__ import annotations

import enum


#: "No buffer" sentinel for buffer_id fields.
OFP_NO_BUFFER = 0xFFFFFFFF

#: Default priority Ryu's ofctl uses when none is given.
DEFAULT_PRIORITY = 0x8000


class MsgType(enum.IntEnum):
    """OpenFlow message types (spec section A.1)."""

    HELLO = 0
    ERROR = 1
    ECHO_REQUEST = 2
    ECHO_REPLY = 3
    EXPERIMENTER = 4
    FEATURES_REQUEST = 5
    FEATURES_REPLY = 6
    GET_CONFIG_REQUEST = 7
    GET_CONFIG_REPLY = 8
    SET_CONFIG = 9
    PACKET_IN = 10
    FLOW_REMOVED = 11
    PORT_STATUS = 12
    PACKET_OUT = 13
    FLOW_MOD = 14
    GROUP_MOD = 15
    PORT_MOD = 16
    TABLE_MOD = 17
    MULTIPART_REQUEST = 18
    MULTIPART_REPLY = 19
    BARRIER_REQUEST = 20
    BARRIER_REPLY = 21


class FlowModCommand(enum.IntEnum):
    ADD = 0
    MODIFY = 1
    MODIFY_STRICT = 2
    DELETE = 3
    DELETE_STRICT = 4


class FlowModFlags(enum.IntFlag):
    NONE = 0
    SEND_FLOW_REM = 1 << 0
    CHECK_OVERLAP = 1 << 1
    RESET_COUNTS = 1 << 2
    NO_PKT_COUNTS = 1 << 3
    NO_BYT_COUNTS = 1 << 4


class Port(enum.IntEnum):
    """Reserved port numbers."""

    MAX = 0xFFFFFF00
    IN_PORT = 0xFFFFFFF8
    TABLE = 0xFFFFFFF9
    NORMAL = 0xFFFFFFFA
    FLOOD = 0xFFFFFFFB
    ALL = 0xFFFFFFFC
    CONTROLLER = 0xFFFFFFFD
    LOCAL = 0xFFFFFFFE
    ANY = 0xFFFFFFFF


class GroupId(enum.IntEnum):
    MAX = 0xFFFFFF00
    ALL = 0xFFFFFFFC
    ANY = 0xFFFFFFFF


class TableId(enum.IntEnum):
    MAX = 0xFE
    ALL = 0xFF


class PacketInReason(enum.IntEnum):
    NO_MATCH = 0
    ACTION = 1
    INVALID_TTL = 2


class FlowRemovedReason(enum.IntEnum):
    IDLE_TIMEOUT = 0
    HARD_TIMEOUT = 1
    DELETE = 2
    GROUP_DELETE = 3


class ErrorType(enum.IntEnum):
    HELLO_FAILED = 0
    BAD_REQUEST = 1
    BAD_ACTION = 2
    BAD_INSTRUCTION = 3
    BAD_MATCH = 4
    FLOW_MOD_FAILED = 5
    GROUP_MOD_FAILED = 6
    PORT_MOD_FAILED = 7
    TABLE_MOD_FAILED = 8
    QUEUE_OP_FAILED = 9
    SWITCH_CONFIG_FAILED = 10
    ROLE_REQUEST_FAILED = 11
    METER_MOD_FAILED = 12
    TABLE_FEATURES_FAILED = 13
    EXPERIMENTER = 0xFFFF


class FlowModFailedCode(enum.IntEnum):
    UNKNOWN = 0
    TABLE_FULL = 1
    BAD_TABLE_ID = 2
    OVERLAP = 3
    EPERM = 4
    BAD_TIMEOUT = 5
    BAD_COMMAND = 6
    BAD_FLAGS = 7


class MultipartType(enum.IntEnum):
    DESC = 0
    FLOW = 1
    AGGREGATE = 2
    TABLE = 3
    PORT_STATS = 4


class InstructionType(enum.IntEnum):
    GOTO_TABLE = 1
    WRITE_METADATA = 2
    WRITE_ACTIONS = 3
    APPLY_ACTIONS = 4
    CLEAR_ACTIONS = 5
    METER = 6


class ActionType(enum.IntEnum):
    OUTPUT = 0
    COPY_TTL_OUT = 11
    COPY_TTL_IN = 12
    PUSH_VLAN = 17
    POP_VLAN = 18
    SET_QUEUE = 21
    GROUP = 22
    SET_NW_TTL = 23
    DEC_NW_TTL = 24
    SET_FIELD = 25


class OxmField(enum.IntEnum):
    """OXM match field ids (OFPXMT_OFB_*)."""

    IN_PORT = 0
    ETH_DST = 3
    ETH_SRC = 4
    ETH_TYPE = 5
    VLAN_VID = 6
    IP_PROTO = 10
    IPV4_SRC = 11
    IPV4_DST = 12
    TCP_SRC = 13
    TCP_DST = 14
    UDP_SRC = 15
    UDP_DST = 16


# Common ethertypes / IP protocol numbers used by the simulator.
ETH_TYPE_IP = 0x0800
ETH_TYPE_VLAN = 0x8100
IP_PROTO_ICMP = 1
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17
