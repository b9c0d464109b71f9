"""Workloads: C-library routines, small test programs, the boot sequence."""

from .bootgen import (BOOT_PHASES, BootImage, BootParams, boot_source,
                      build_boot_image, build_boot_program)
from .clib import clib_source
from .netboot import (DEFAULT_PAYLOAD, burst_echo_programs,
                      burst_ping_program, burst_ping_source, echo_program,
                      echo_source, ping_echo_programs, ping_program,
                      ping_source)
from .programs import (arithmetic_program, arithmetic_source,
                       gpio_blink_program, gpio_blink_source, hello_program,
                       hello_source, interrupt_program, interrupt_source,
                       memory_exercise_program, memory_exercise_source)

__all__ = [
    "BOOT_PHASES",
    "BootImage",
    "BootParams",
    "DEFAULT_PAYLOAD",
    "arithmetic_program",
    "arithmetic_source",
    "boot_source",
    "build_boot_image",
    "build_boot_program",
    "burst_echo_programs",
    "burst_ping_program",
    "burst_ping_source",
    "clib_source",
    "echo_program",
    "echo_source",
    "gpio_blink_program",
    "gpio_blink_source",
    "hello_program",
    "hello_source",
    "interrupt_program",
    "interrupt_source",
    "memory_exercise_program",
    "memory_exercise_source",
    "ping_echo_programs",
    "ping_program",
    "ping_source",
]
