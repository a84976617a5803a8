"""Real memory rewiring from Python — the paper's mechanism, live.

Drives :class:`~repro.substrate.native.NativeSubstrate`, the backend that
runs the adaptive stack on the real kernel, through the moves the
paper's C++ system makes on a vanilla Linux kernel (no root required):

1. reserve a virtual region (the over-allocation) and rewire its pages
   onto arbitrary physical pages of a memfd/tmpfs main-memory file,
2. repoint a page at runtime,
3. share one physical page between two virtual pages,
4. map a run of consecutive physical pages with a single mmap call.

Run:  python examples/native_rewiring_demo.py
"""

import ctypes

from repro.native import is_supported
from repro.substrate.native import NativeSubstrate
from repro.vm.constants import PAGE_HEADER_BYTES, PAGE_SIZE


def write_first_value(vpn: int, value: int) -> None:
    """Store ``value`` in the first record slot of virtual page ``vpn``."""
    ctypes.c_int64.from_address(vpn * PAGE_SIZE + PAGE_HEADER_BYTES).value = value


def main() -> None:
    if not is_supported():
        print("native rewiring is not supported on this platform "
              "(needs Linux with mmap + memfd/tmpfs); nothing to demo.")
        return

    sub = NativeSubstrate()
    try:
        file = sub.create_file("demo", 8)
        # label every physical page so we can see where pointers go
        for page in range(8):
            file.data[page, 0] = 1000 + page
        print(f"page size: {PAGE_SIZE} bytes; an 8-page main-memory file "
              f"whose page p starts with the value 1000+p")

        def first(vpn: int) -> int:
            return int(sub.read_virtual(vpn)[0])

        view = sub.reserve(8)
        print("\n1) rewire view pages [0..3] to physical pages [7,5,3,1]:")
        for slot, phys in enumerate([7, 5, 3, 1]):
            sub.map_fixed(view + slot, 1, file, phys)
        for slot in range(4):
            print(f"   view[{slot}] reads {first(view + slot)}")

        print("\n2) repoint view[0] at physical page 2 (one mmap call):")
        sub.map_fixed(view, 1, file, 2)
        print(f"   view[0] now reads {first(view)}")

        print("\n3) shared physical page: view[6] also maps physical 2;")
        sub.map_fixed(view + 6, 1, file, 2)
        write_first_value(view + 6, 4242)
        print(f"   write 4242 through view[6], read via view[0]: {first(view)}")
        print(f"   ...and via the file: {int(file.data[2, 0])}")

        print("\n4) coalesced run: map view[4..5] onto physical [0..1] "
              "with a single mmap call:")
        sub.map_fixed(view + 4, 2, file, 0)
        print(f"   view[4] reads {first(view + 4)}, "
              f"view[5] reads {first(view + 5)}")
    finally:
        sub.close()

    print("\nThis is the exact kernel mechanism the adaptive storage "
          "layer builds on;\nthe simulated substrate (repro.vm) mirrors "
          "these semantics deterministically.")


if __name__ == "__main__":
    main()
