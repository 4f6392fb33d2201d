"""Minimal reverse-mode autodiff engine powering every machine in the toolkit.

Import each name from the module that defines it: tensor, layers, machine,
losses, optim or checkpoint.
"""
