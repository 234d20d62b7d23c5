"""Power cuts placed inside an FTL's work, for tests that cut at a known
step; recovery afterwards is :func:`repro.faults.checker.recover_after_cut`
and the FTL is driven through the checker's ``FTL_OPS`` row.  Also a
latent media defect, :func:`break_block`."""

from repro.errors import MediaError


def checkpoint(ftl):
    """Take a checkpoint now, on either FTL that keeps a journal."""
    ftl.sim.run_until(ftl.sim.spawn(ftl._checkpoint_locked_proc()))


def cut_in(injector, delay):
    """Cut power *delay* simulated seconds from now (0: now)."""
    def cutter():
        yield injector.device.sim.timeout(delay)
        injector.power_cut()
    if delay:
        injector.device.sim.spawn(cutter())
    else:
        injector.power_cut()


def cut_after(injector, proc):
    """*proc* (a process generator function), cutting power the moment a
    call of it returns."""
    def wrapped(*args, **kwargs):
        result = yield from proc(*args, **kwargs)
        injector.power_cut()
        return result
    return wrapped


def cut_during(injector, proc, delay):
    """*proc*, cutting power *delay* into each call: the command the cut
    catches in flight changes nothing (an erase completes POWER_FAIL)."""
    def wrapped(*args, **kwargs):
        cut_in(injector, delay)
        return proc(*args, **kwargs)
    return wrapped


def break_block(device, key):
    """Break the block set under chunk *key*: its next program raises
    :class:`MediaError` at the chip, while the chunk still admits writes
    (a defect the device finds only when it programs).  The controller
    then retires the chunk and refuses every later program or erase."""
    chip = device.chips[key[:2]]
    program = chip.program

    def fails_once(index, sectors):
        if index != key[2]:
            return program(index, sectors)
        chip.program = program
        raise MediaError(f"program on bad block {index}")
    chip.program = fails_once
