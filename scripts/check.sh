#!/bin/sh
# Tier-1.5 gate: everything CI enforces, runnable locally in one command.
# The gate is defined once, as `make check`; this script only runs it, so
# the two cannot drift.
exec make check
