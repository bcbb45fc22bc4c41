"""Precomputed backup routings for O(1) fast failover (see ``plans``)."""

from repro.protect.plans import BackupPlan, BackupPlanStore

__all__ = ["BackupPlan", "BackupPlanStore"]
