"""Helpers shared by more than one test package."""
