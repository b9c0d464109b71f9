"""C-library routines in MicroBlaze assembly: memset, memcpy and console IO.

These are the routines the paper's section 5.4 intercepts: the uClinux boot
spends 52 % of its instructions in ``memset`` and ``memcpy``.  The
implementations follow the MicroBlaze ABI (arguments in r5-r7, return value
in r3, return address in r15), so the kernel-function interceptor can read
the same registers the real wrapper would.  The instructions an
interception skips are counted from these routines in
``repro.iss.interception``; a change to their code must change those
counts too.

The module also provides ``putchar``/``puts`` built on the console UART,
used by every workload that prints boot messages.
"""

from __future__ import annotations

from ..platform import memory_map as mm

#: memset(dest=r5, value=r6, length=r7) -> r3 = dest
MEMSET_SOURCE = """
memset:
    add     r3, r5, r0          # return value = dest
    beqi    r7, memset_done
    add     r4, r5, r0          # cursor
memset_loop:
    sb      r6, r4, r0
    addik   r4, r4, 1
    addik   r7, r7, -1
    bnei    r7, memset_loop
memset_done:
    rtsd    r15, 8
    nop
"""

#: memcpy(dest=r5, src=r6, length=r7) -> r3 = dest
MEMCPY_SOURCE = """
memcpy:
    add     r3, r5, r0          # return value = dest
    beqi    r7, memcpy_done
    add     r4, r5, r0          # destination cursor
    add     r8, r6, r0          # source cursor
memcpy_loop:
    lbu     r9, r8, r0
    sb      r9, r4, r0
    addik   r8, r8, 1
    addik   r4, r4, 1
    addik   r7, r7, -1
    bnei    r7, memcpy_loop
memcpy_done:
    rtsd    r15, 8
    nop
"""

#: putchar(character=r5): busy-waits on the TX-full status bit, then writes
#: the character into the console UART transmit FIFO.  Clobbers r20, r21.
PUTCHAR_SOURCE = f"""
putchar:
    li      r20, {mm.CONSOLE_UART_BASE:#x}
putchar_wait:
    lwi     r21, r20, 8         # status register
    andi    r21, r21, 0x08      # TX FIFO full?
    bnei    r21, putchar_wait
    swi     r5, r20, 4          # TX FIFO
    rtsd    r15, 8
    nop
"""

#: puts(string=r5): prints a NUL-terminated string through putchar.
#: Clobbers r22, r23 (and whatever putchar clobbers).
PUTS_SOURCE = """
puts:
    add     r22, r5, r0         # cursor
    add     r23, r15, r0        # saved return address
puts_loop:
    lbu     r5, r22, r0
    beqi    r5, puts_done
    brlid   r15, putchar
    nop
    addik   r22, r22, 1
    bri     puts_loop
puts_done:
    add     r15, r23, r0
    rtsd    r15, 8
    nop
"""


def clib_source() -> str:
    """The complete C-library assembly block (order matters: callees first)."""
    return "\n".join([PUTCHAR_SOURCE, PUTS_SOURCE, MEMSET_SOURCE,
                      MEMCPY_SOURCE])
